package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	asset "repro"
	"repro/internal/wal"
)

// The correctness checker runs after every workload, with the generators
// stopped, and compares what the engines hold with what they acknowledged.

// violations collects findings and keeps the first few of each run readable.
type violations []string

func (v *violations) addf(format string, args ...any) {
	const keep = 20
	if len(*v) < keep {
		// Joined errors print one per line; keep a violation on one.
		*v = append(*v, strings.ReplaceAll(fmt.Sprintf(format, args...), "\n", "; "))
	} else if len(*v) == keep {
		*v = append(*v, "... more violations suppressed")
	}
}

// expected is the sum of the workers' ledgers.
type expected struct {
	ctr      [numCounters]int64
	cartAcks [numCarts]uint32
	acctNet  int64
	created  int64
}

func sumLedgers(workers []*worker) *expected {
	x := &expected{}
	for _, w := range workers {
		for i, d := range w.led.ctr {
			x.ctr[i] += d
		}
		for i, n := range w.led.cartAcks {
			x.cartAcks[i] += n
		}
		x.acctNet += w.led.acctNet
		x.created += w.led.created
	}
	return x
}

// checkQuiescent verifies that nothing is left running, waiting, locked or
// in doubt on any node.
func checkQuiescent(e *engine, v *violations) {
	for n, nd := range e.nodes {
		for _, info := range nd.m.Transactions() {
			if !info.Status.Terminated() {
				v.addf("node %d: transaction %v is still %v", n, info.ID, info.Status)
			}
		}
		for _, bad := range nd.m.LockManager().CheckInvariants() {
			v.addf("node %d: lock invariant: %s", n, bad)
		}
		if ws := nd.m.WaitGraph().Waiters(); len(ws) != 0 {
			v.addf("node %d: %d transactions still in the waits-for graph", n, len(ws))
		}
		if gids := nd.m.InDoubt(); len(gids) != 0 {
			v.addf("node %d: %d groups in doubt", n, len(gids))
		}
	}
}

// checkState compares the stored objects with the acknowledged effects:
// every counter holds its initial value plus the acked deltas (which is
// conservation, per counter and across nodes), the accounts sum to what
// was charged, every cart is at its last acked version, and the created
// records are exactly the acked shipments and rentals, so a compensated
// saga or workflow left nothing behind.
func checkState(e *engine, x *expected, v *violations) {
	read := func(i uint32, oid asset.OID) ([]byte, bool) {
		nd := e.nodes[0]
		if len(e.nodes) == 2 {
			nd = e.nodes[i&1]
		}
		return nd.m.Cache().Read(oid)
	}
	for i := uint32(0); i < numCounters; i++ {
		data, ok := read(i, counterOID(uint16(i)))
		if !ok || len(data) != 8 {
			v.addf("counter %d is missing or malformed", i)
			continue
		}
		if got, want := wal.DecodeCounter(data), counterInitial+uint64(x.ctr[i]); got != want {
			v.addf("counter %d holds %d, acked deltas say %d", i, got, want)
		}
	}
	var balances uint64
	for i := uint32(0); i < numAccounts; i++ {
		data, ok := read(i, accountOID(i))
		if !ok || len(data) != accountBytes {
			v.addf("account %d is missing or malformed", i)
			continue
		}
		balances += binary.LittleEndian.Uint64(data)
	}
	if want := uint64(numAccounts)*accountInitial + uint64(x.acctNet); balances != want {
		v.addf("accounts sum to %d, acked charges say %d (off by %d)", balances, want, int64(balances-want))
	}
	for i := uint32(0); i < numCarts; i++ {
		data, ok := read(i, cartOID(uint16(i)))
		if !ok || len(data) != cartBytes {
			v.addf("cart %d is missing or malformed", i)
			continue
		}
		if got, want := binary.LittleEndian.Uint64(data), 2*uint64(x.cartAcks[i]); got != want {
			v.addf("cart %d is at version %d, last acked version is %d", i, got, want)
		}
	}
	// Everything beyond the loaded objects is a created record.
	records := -int64(numAccounts + numCounters + numCarts)
	for _, nd := range e.nodes {
		records += int64(nd.m.Cache().Len())
	}
	if records != x.created {
		v.addf("%d shipment and rental records exist, %d were acked", records, x.created)
	}
}

// stateDigest is an order-independent digest of every object on every node.
func stateDigest(e *engine) (digest uint64, objects int) {
	for n, nd := range e.nodes {
		nd.m.Cache().ForEach(func(oid asset.OID, data []byte) bool {
			h := fnv.New64a()
			var key [9]byte
			key[0] = byte(n)
			binary.LittleEndian.PutUint64(key[1:], uint64(oid))
			h.Write(key[:])
			h.Write(data)
			digest += h.Sum64()
			objects++
			return true
		})
	}
	return digest, objects
}

// reopen closes every node and opens it again from its directory, timing
// the opens: what recovery costs with the log as the phases left it.
func (e *engine) reopen() (time.Duration, error) {
	e.hangUp()
	var took time.Duration
	for n, nd := range e.nodes {
		if err := nd.m.Close(); err != nil {
			return 0, fmt.Errorf("close node %d: %w", n, err)
		}
		t0 := time.Now()
		m, err := asset.Open(managerConfig(nd.dir, e.dev))
		took += time.Since(t0)
		if err != nil {
			nd.m = nil
			return 0, fmt.Errorf("reopen node %d: %w", n, err)
		}
		nd.m = m
	}
	return took, nil
}

// checkAll runs every check. On a durable arrangement it also reopens the
// engines and requires the recovered state to equal the acked state. It
// returns the violations and the reopen time.
func checkAll(e *engine, workers []*worker) (violations, time.Duration, error) {
	var v violations
	x := sumLedgers(workers)
	checkQuiescent(e, &v)
	checkState(e, x, &v)
	if e.dir == "" {
		return v, 0, nil
	}
	before, objects := stateDigest(e)
	took, err := e.reopen()
	if err != nil {
		return v, 0, err
	}
	after, reopened := stateDigest(e)
	if before != after || objects != reopened {
		v.addf("reopened state differs: %d objects digest %x before, %d objects digest %x after", objects, before, reopened, after)
	}
	checkQuiescent(e, &v)
	checkState(e, x, &v)
	return v, took, nil
}
