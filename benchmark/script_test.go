package main

import (
	asset "repro"

	"math"
	"testing"
)

func TestSameSeedSameScript(t *testing.T) {
	const n = 20000
	h1, c1 := newScript(7).digest(n)
	h2, c2 := newScript(7).digest(n)
	if h1 != h2 || c1 != c2 {
		t.Fatalf("seed 7 gave hashes %x and %x, counts %v and %v", h1, h2, c1, c2)
	}
	h3, _ := newScript(8).digest(n)
	if h3 == h1 {
		t.Fatalf("seeds 7 and 8 gave the same hash %x", h1)
	}
	for k, got := range c1 {
		if want := float64(kindShare[k]) / 100 * n; math.Abs(float64(got)-want) > 0.1*want {
			t.Errorf("%s: %d of %d entries, mix says about %.0f", kindNames[k], got, n, want)
		}
	}
	a1, a2 := poissonArrivals(7, 1000, 5000), poissonArrivals(7, 1000, 5000)
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival %d differs between two schedules of one seed", i)
		}
	}
	if mean := float64(a1[len(a1)-1]) / float64(len(a1)); math.Abs(mean-1e6) > 5e4 {
		t.Errorf("mean inter-arrival %.0f ns at 1000/s", mean)
	}
}

func TestZipfFavoursLowRanks(t *testing.T) {
	z := newZipf(numCounters, zipfS)
	rng := splitmix(1)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if z.sample(rng.float()) == 0 {
			hits++
		}
	}
	// P(rank 0) = 1 / sum_{k<=1024} k^-1.1, about 0.18.
	if share := float64(hits) / n; share < 0.16 || share > 0.20 {
		t.Errorf("rank 0 drawn %.3f of the time, want about 0.18", share)
	}
}

// recorder is an ops that writes down what a body asks for.
type recorder struct{ log []recordedOp }

type recordedOp struct {
	op    string
	oid   uint64
	delta int64
}

func (r *recorder) note(op string, oid uint64, delta int64) {
	r.log = append(r.log, recordedOp{op, oid, delta})
}
func (r *recorder) lock(oid asset.OID, _ asset.OpSet) error {
	r.note("lock", uint64(oid), 0)
	return nil
}
func (r *recorder) read(oid asset.OID) ([]byte, error) {
	r.note("read", uint64(oid), 0)
	return make([]byte, cartBytes), nil
}
func (r *recorder) write(oid asset.OID, _ []byte) error { r.note("write", uint64(oid), 0); return nil }
func (r *recorder) add(oid asset.OID, d int64) error    { r.note("add", uint64(oid), d); return nil }
func (r *recorder) create([]byte) error                 { r.note("create", 0, 0); return nil }

func TestRouteKeepsSingleNodeTypesOnOneNodeAndSplitsXfer(t *testing.T) {
	sc := newScript(3)
	for i := uint32(0); i < 5000; i++ {
		orig := sc.at(i)
		if n, same := route(orig, 1); n != 0 || same != orig {
			t.Fatalf("entry %d changed on a single manager", i)
		}
		n, r := route(orig, 2)
		for _, a := range r.acct {
			if int(a&1) != n {
				t.Fatalf("entry %d (%s): account %d is not on node %d", i, kindNames[r.kind], a, n)
			}
		}
		if int(r.ctr[0]&1) != n || (r.kind == kindCart && int(r.cart&1) != n) {
			t.Fatalf("entry %d (%s): primary key is not on node %d", i, kindNames[r.kind], n)
		}
		if other := int(r.ctr[1] & 1); (r.kind == kindXfer) == (other == n) {
			t.Fatalf("entry %d (%s): second counter on node %d, primary on node %d", i, kindNames[r.kind], other, n)
		}
		if r.id != orig.id || r.kind != orig.kind || r.flags != orig.flags || r.qty != orig.qty || r.amt != orig.amt {
			t.Fatalf("entry %d: routing changed more than keys", i)
		}
	}
}

// Both executors build every body from the same step functions over ops,
// so one script entry asks either engine for the same operations. This
// pins the steps themselves to the script.
func TestStepsFollowTheScript(t *testing.T) {
	spec := txnSpec{id: 9, qty: 3, amt: 40, ctr: [2]uint16{5, 6}, cart: 11}
	for j := range spec.acct {
		spec.acct[j] = uint32(100 + j)
	}
	var r recorder
	if err := addStock(&r, spec.ctr[0], -int64(spec.qty)); err != nil {
		t.Fatal(err)
	}
	if err := moveMoney(&r, spec.acct[0], -int64(spec.amt), true); err != errScripted {
		t.Fatalf("scripted failure returned %v", err)
	}
	if err := editCart(&r, spec.cart, spec.id); err != nil {
		t.Fatal(err)
	}
	want := []recordedOp{
		{"lock", uint64(counterOID(5)), 0}, {"add", uint64(counterOID(5)), -3},
		{"lock", uint64(accountOID(100)), 0}, {"read", uint64(accountOID(100)), 0},
		{"lock", uint64(cartOID(11)), 0}, {"read", uint64(cartOID(11)), 0}, {"write", uint64(cartOID(11)), 0},
	}
	if len(r.log) != len(want) {
		t.Fatalf("recorded %v, want %v", r.log, want)
	}
	for i := range want {
		if r.log[i] != want[i] {
			t.Errorf("op %d: %v, want %v", i, r.log[i], want[i])
		}
	}
	r.log = nil
	if err := auditBody(&r, &spec); err != nil {
		t.Fatal(err)
	}
	if n := len(r.log); n != 2*auditReads || r.log[n-1] != (recordedOp{"read", uint64(accountOID(107)), 0}) {
		t.Errorf("audit issued %v", r.log)
	}
}

func TestLedgerBooksOnlyScriptedOutcomes(t *testing.T) {
	var l ledger
	l.book(&txnSpec{kind: kindOrder, qty: 2, amt: 10, ctr: [2]uint16{1, 2}})
	l.book(&txnSpec{kind: kindOrder, qty: 2, amt: 10, ctr: [2]uint16{1, 2}, flags: flagFailCharge})
	l.book(&txnSpec{kind: kindBooking, amt: 5, ctr: [2]uint16{1, 2}, flags: flagFailFlight})
	l.book(&txnSpec{kind: kindBooking, amt: 5, ctr: [2]uint16{1, 2}, flags: flagFailHotel})
	l.book(&txnSpec{kind: kindXfer, qty: 4, ctr: [2]uint16{1, 2}})
	l.book(&txnSpec{kind: kindCart, cart: 3})
	if l.ctr[1] != -2-4 || l.ctr[2] != -1+4 || l.acctNet != -15 || l.created != 2 || l.cartAcks[3] != 1 {
		t.Errorf("ledger ctr1 %d ctr2 %d acct %d created %d cart %d", l.ctr[1], l.ctr[2], l.acctNet, l.created, l.cartAcks[3])
	}
}
