package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
)

// The MACRO mix. A script is a pure function of (seed, index): entry i is
// generated from its own generator state, so every phase, executor and
// worker sees the same transaction for the same index, no entry is stored,
// and the engine only ever receives the generated operations.

// Object populations per manager.
const (
	numAccounts = 262144 // 64 B each, chosen uniformly
	numCounters = 1024   // 8 B escrow counters with bounds [0, 2^40], Zipf s=1.1
	numCarts    = 16384  // 128 B each, Zipf s=1.1
	zipfS       = 1.1

	accountBytes   = 64
	cartBytes      = 128
	recordBytes    = 64 // shipments and car rentals created by orders and bookings
	counterInitial = uint64(1) << 39
	counterHigh    = uint64(1) << 40
	accountInitial = uint64(1) << 32
	auditReads     = 8
)

type txnKind uint8

const (
	kindOrder txnKind = iota
	kindBooking
	kindCart
	kindRestock
	kindAudit
	kindXfer
	numKinds
)

var kindNames = [numKinds]string{"order", "booking", "cart", "restock", "audit", "xfer"}

// kindShare is each type's share of the mix in percent, in kind order.
var kindShare = [numKinds]int{25, 15, 10, 15, 20, 15}

// Scripted outcomes. A business transaction succeeds when it reaches the
// outcome its flags script, so a compensated saga is a success.
const (
	flagFailCharge uint8 = 1 << iota // order: the charge step aborts, the reservation is compensated (2%)
	flagFailFlight                   // booking: the first-choice flight aborts, the second is taken (10%)
	flagFailHotel                    // booking: the hotel aborts, the flight is compensated (2%)
)

// txnSpec is one scripted business transaction.
type txnSpec struct {
	id    uint32
	kind  txnKind
	flags uint8
	qty   uint16             // stock units (order, restock, xfer)
	amt   uint16             // money charged (order, booking)
	ctr   [2]uint16          // counters: order/restock use [0]; booking's flight choices and xfer's debit/credit use both
	cart  uint16             // cart
	acct  [auditReads]uint32 // accounts: order/booking use [0]; audit reads all
}

// splitmix is the SplitMix64 generator: a full-period 64-bit stream from
// any seed, cheap enough to seed once per script entry.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }
func (s *splitmix) intn(n int) int { return int(s.next() % uint64(n)) }
func (s *splitmix) pct(p int) bool { return s.intn(100) < p }

// zipfTable samples ranks 0..n-1 with P(k) proportional to 1/(k+1)^s by
// inverting the exact cumulative distribution.
type zipfTable []float64

func newZipf(n int, s float64) zipfTable {
	cdf := make(zipfTable, n)
	sum := 0.0
	for k := range cdf {
		sum += math.Pow(float64(k+1), -s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}

func (z zipfTable) sample(u float64) int {
	k := sort.SearchFloat64s(z, u)
	if k >= len(z) {
		k = len(z) - 1
	}
	return k
}

// script generates the MACRO mix for one seed.
type script struct {
	seed     uint64
	counters zipfTable
	carts    zipfTable
}

func newScript(seed uint64) *script {
	return &script{seed: seed, counters: newZipf(numCounters, zipfS), carts: newZipf(numCarts, zipfS)}
}

// at returns script entry i.
func (s *script) at(i uint32) txnSpec {
	rng := splitmix(s.seed*0xd1342543de82ef95 + uint64(i)*0x2545f4914f6cdd1d + 1)
	rng.next()
	t := txnSpec{id: i}
	roll := rng.intn(100)
	for k, share := range kindShare {
		if roll < share {
			t.kind = txnKind(k)
			break
		}
		roll -= share
	}
	t.qty = uint16(1 + rng.intn(8))
	t.amt = uint16(1 + rng.intn(100))
	t.ctr[0] = uint16(s.counters.sample(rng.float()))
	t.ctr[1] = uint16(s.counters.sample(rng.float()))
	if t.ctr[1] == t.ctr[0] {
		t.ctr[1] = (t.ctr[0] + 1) % numCounters
	}
	t.cart = uint16(s.carts.sample(rng.float()))
	for j := range t.acct {
		t.acct[j] = uint32(rng.intn(numAccounts))
	}
	switch t.kind {
	case kindOrder:
		if rng.pct(2) {
			t.flags |= flagFailCharge
		}
	case kindBooking:
		if rng.pct(10) {
			t.flags |= flagFailFlight
		}
		if rng.pct(2) {
			t.flags |= flagFailHotel
		}
	}
	return t
}

// scriptHashLen is how many leading entries the script hash covers.
const scriptHashLen = 100000

// digest hashes the first n entries and counts them by type. Two runs with
// one seed must agree on both; the hash is reported as
// harness.script_hash.
func (s *script) digest(n uint32) (hash uint64, counts [numKinds]int) {
	h := fnv.New64a()
	var buf [16 + 4*auditReads]byte
	for i := uint32(0); i < n; i++ {
		t := s.at(i)
		counts[t.kind]++
		binary.LittleEndian.PutUint32(buf[0:], t.id)
		buf[4], buf[5] = byte(t.kind), t.flags
		binary.LittleEndian.PutUint16(buf[6:], t.qty)
		binary.LittleEndian.PutUint16(buf[8:], t.amt)
		binary.LittleEndian.PutUint16(buf[10:], t.ctr[0])
		binary.LittleEndian.PutUint16(buf[12:], t.ctr[1])
		binary.LittleEndian.PutUint16(buf[14:], t.cart)
		for j, a := range t.acct {
			binary.LittleEndian.PutUint32(buf[16+4*j:], a)
		}
		h.Write(buf[:])
	}
	return h.Sum64(), counts
}

// Script index ranges, one per phase, so no phase replays another's
// entries. The traced pass takes "the first" entries.
const (
	idxTraced   uint32 = 0
	idxWarmup   uint32 = 1 << 26
	idxClosed   uint32 = 2 << 26
	idxOpen     uint32 = 3 << 26
	idxRecover  uint32 = 4 << 26
	idxLocalRef uint32 = 5 << 26
)

// poissonArrivals returns n intended start times, in nanoseconds from the
// phase start, of a Poisson process with the given rate, drawn from seed.
func poissonArrivals(seed uint64, rate float64, n int) []int64 {
	rng := splitmix(seed ^ 0xa0761d6478bd642f)
	out := make([]int64, n)
	t := 0.0
	for i := range out {
		t += -math.Log(1-rng.float()) / rate
		out[i] = int64(t * 1e9)
	}
	return out
}
