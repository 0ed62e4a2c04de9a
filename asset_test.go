// Integration tests of the public API: invariants that must survive any
// interleaving of concurrent transactions, crashes, and model compositions.
package asset_test

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"

	asset "repro"
	"repro/internal/race"
	"repro/models"
)

func newMem(t *testing.T) *asset.Manager {
	t.Helper()
	m, err := asset.Open(asset.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// TestDefaultConfigKeepsNoDescriptors: 100,000 no-op transactions run on
// the zero Config leave no descriptor in the table and the live heap where
// it was. The default manager once kept every terminated descriptor for
// its life, about 370 B a transaction: 37 MB here.
func TestDefaultConfigKeepsNoDescriptors(t *testing.T) {
	if race.Enabled {
		t.Skip("heap sizes are meaningless under the race detector")
	}
	m := newMem(t)
	ctx := context.Background()
	noop := func(*asset.Tx) error { return nil }
	run := func(n int) {
		for i := 0; i < n; i++ {
			if err := m.Run(ctx, asset.RunOptions{}, noop); err != nil {
				t.Fatal(err)
			}
		}
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(1000) // warm free lists and table buckets
	before := live()
	run(100_000)
	after := live()
	if txns := m.Transactions(); len(txns) != 0 {
		t.Errorf("%d transactions tabled after 100,000 have terminated", len(txns))
	}
	if after > before && after-before > 1<<20 {
		t.Errorf("live heap grew %d KB over 100,000 transactions, want < 1024 KB", (after-before)>>10)
	}
}

func putU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func getU64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// TestMoneyConservation: concurrent transfers between accounts — with
// deadlock-victim retries — never create or destroy money, under both
// commit and random aborts.
func TestMoneyConservation(t *testing.T) {
	m := newMem(t)
	const nAccounts = 8
	const initial = 1000
	accounts := make([]asset.OID, nAccounts)
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		for i := range accounts {
			var err error
			if accounts[i], err = tx.Create(putU64(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				from := accounts[rng.Intn(nAccounts)]
				to := accounts[rng.Intn(nAccounts)]
				if from == to {
					continue
				}
				amount := uint64(rng.Intn(50) + 1)
				abortIt := rng.Intn(4) == 0
				err := asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 20}, func(tx *asset.Tx) error {
					fb, err := tx.Read(from)
					if err != nil {
						return err
					}
					bal := getU64(fb)
					if bal < amount {
						return nil // skip, not enough funds
					}
					if err := tx.Write(from, putU64(bal-amount)); err != nil {
						return err
					}
					tb, err := tx.Read(to)
					if err != nil {
						return err
					}
					if err := tx.Write(to, putU64(getU64(tb)+amount)); err != nil {
						return err
					}
					if abortIt {
						return fmt.Errorf("deliberate abort")
					}
					return nil
				})
				if err != nil && !errors.Is(err, asset.ErrAborted) {
					errCh <- err
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	var total uint64
	for _, acct := range accounts {
		b, ok := m.Cache().Read(acct)
		if !ok {
			t.Fatalf("account %v vanished", acct)
		}
		total += getU64(b)
	}
	if total != nAccounts*initial {
		t.Fatalf("money not conserved: %d, want %d", total, nAccounts*initial)
	}
}

// TestMoneyConservationAcrossCrash: same invariant with durability and a
// crash in the middle.
func TestMoneyConservationAcrossCrash(t *testing.T) {
	dir := t.TempDir()
	m, err := asset.Open(asset.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	const nAccounts = 4
	const initial = 500
	accounts := make([]asset.OID, nAccounts)
	if err := models.Atomic(m, func(tx *asset.Tx) error {
		for i := range accounts {
			var err error
			if accounts[i], err = tx.Create(putU64(initial)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 100; i++ {
		from, to := rng.Intn(nAccounts), rng.Intn(nAccounts)
		if from == to {
			continue
		}
		models.Atomic(m, func(tx *asset.Tx) error {
			fb, _ := tx.Read(accounts[from])
			if getU64(fb) < 10 {
				return nil
			}
			if err := tx.Write(accounts[from], putU64(getU64(fb)-10)); err != nil {
				return err
			}
			tb, _ := tx.Read(accounts[to])
			return tx.Write(accounts[to], putU64(getU64(tb)+10))
		})
	}
	// Crash with one transfer in flight.
	hold := make(chan struct{})
	started := make(chan struct{})
	id, _ := m.Initiate(func(tx *asset.Tx) error {
		fb, _ := tx.Read(accounts[0])
		tx.Write(accounts[0], putU64(getU64(fb)-10))
		close(started)
		<-hold // never writes the matching credit
		return nil
	})
	m.Begin(id)
	<-started
	m.Close()
	close(hold)

	m2, err := asset.Open(asset.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	var total uint64
	for _, acct := range accounts {
		b, ok := m2.Cache().Read(acct)
		if !ok {
			t.Fatalf("account %v lost in crash", acct)
		}
		total += getU64(b)
	}
	if total != nAccounts*initial {
		t.Fatalf("money not conserved across crash: %d, want %d", total, nAccounts*initial)
	}
}

// TestPublicErrorValues: the re-exported errors are the ones the manager
// actually returns (errors.Is must work through the facade).
func TestPublicErrorValues(t *testing.T) {
	m := newMem(t)
	id, _ := m.Initiate(func(tx *asset.Tx) error { return errors.New("no") })
	if err := m.Commit(id); !errors.Is(err, asset.ErrNotBegun) {
		t.Fatalf("commit before begin = %v", err)
	}
	m.Begin(id)
	if err := m.Commit(id); !errors.Is(err, asset.ErrAborted) {
		t.Fatalf("commit of failed txn = %v", err)
	}
	if err := m.Begin(999); !errors.Is(err, asset.ErrUnknownTxn) {
		t.Fatalf("begin unknown = %v", err)
	}
	ok := runOK(t, m)
	if err := m.Abort(ok); !errors.Is(err, asset.ErrAlreadyCommitted) {
		t.Fatalf("abort committed = %v", err)
	}
	a, _ := m.Initiate(func(tx *asset.Tx) error { return nil })
	b, _ := m.Initiate(func(tx *asset.Tx) error { return nil })
	m.FormDependency(asset.CD, a, b)
	if err := m.FormDependency(asset.CD, b, a); !errors.Is(err, asset.ErrDependencyCycle) {
		t.Fatalf("cycle = %v", err)
	}
}

func runOK(t *testing.T, m *asset.Manager) asset.TID {
	t.Helper()
	id, err := m.Initiate(func(tx *asset.Tx) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	m.Begin(id)
	if err := m.Commit(id); err != nil {
		t.Fatal(err)
	}
	return id
}

// TestStatusVisibility: statuses progress exactly through the §2.1
// life-cycle as observed through the public API.
func TestStatusVisibility(t *testing.T) {
	m := newMem(t)
	gate := make(chan struct{})
	started := make(chan struct{})
	id, _ := m.Initiate(func(tx *asset.Tx) error {
		close(started)
		<-gate
		return nil
	})
	if got := m.StatusOf(id); got != asset.StatusInitiated {
		t.Fatalf("status = %v", got)
	}
	m.Begin(id)
	<-started
	if got := m.StatusOf(id); got != asset.StatusRunning {
		t.Fatalf("status = %v", got)
	}
	close(gate)
	m.Wait(id)
	if got := m.StatusOf(id); got != asset.StatusCompleted {
		t.Fatalf("status = %v", got)
	}
	m.Commit(id)
	if got := m.StatusOf(id); got != asset.StatusCommitted {
		t.Fatalf("status = %v", got)
	}
}

// TestQuickSerializableHistories: random pairs of RMW transactions on a
// small object set always yield a final state reachable by *some* serial
// order. With two increment-only transactions over disjoint and shared
// objects, the commuting final state is unique — so any committed result
// must equal the serial sum of committed transactions.
func TestQuickSerializableHistories(t *testing.T) {
	f := func(ops []struct {
		Obj   uint8
		Abort bool
	}) bool {
		m, err := asset.Open(asset.Config{})
		if err != nil {
			return false
		}
		defer m.Close()
		const nObjs = 4
		oids := make([]asset.OID, nObjs)
		if err := models.Atomic(m, func(tx *asset.Tx) error {
			for i := range oids {
				var err error
				if oids[i], err = tx.Create(putU64(0)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return false
		}
		want := make([]uint64, nObjs)
		var wg sync.WaitGroup
		var mu sync.Mutex
		for _, op := range ops {
			op := op
			wg.Add(1)
			go func() {
				defer wg.Done()
				idx := int(op.Obj) % nObjs
				err := asset.Run(context.Background(), m, asset.RunOptions{MaxAttempts: 50}, func(tx *asset.Tx) error {
					b, err := tx.Read(oids[idx])
					if err != nil {
						return err
					}
					if err := tx.Write(oids[idx], putU64(getU64(b)+1)); err != nil {
						return err
					}
					if op.Abort {
						return errors.New("abort")
					}
					return nil
				})
				if err == nil {
					mu.Lock()
					want[idx]++
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
		for i, oid := range oids {
			b, _ := m.Cache().Read(oid)
			if getU64(b) != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
