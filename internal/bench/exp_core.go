package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	asset "repro"
	"repro/internal/wal"
	"repro/internal/workload"
	"repro/models"
)

func memManager() (*asset.Manager, error) {
	return asset.Open(asset.Config{ReapTerminated: true})
}

// seedObjects creates n committed objects of the given size and returns
// their oids.
func seedObjects(m *asset.Manager, n, size int) ([]asset.OID, error) {
	oids := make([]asset.OID, 0, n)
	err := models.Atomic(m, func(tx *asset.Tx) error {
		data := make([]byte, size)
		for i := 0; i < n; i++ {
			oid, err := tx.Create(data)
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})
	return oids, err
}

func seedCounters(m *asset.Manager, n int) ([]asset.OID, error) {
	oids := make([]asset.OID, 0, n)
	err := models.Atomic(m, func(tx *asset.Tx) error {
		for i := 0; i < n; i++ {
			oid, err := tx.Create(wal.EncodeCounter(0))
			if err != nil {
				return err
			}
			oids = append(oids, oid)
		}
		return nil
	})
	return oids, err
}

func init() {
	register(Experiment{
		ID:     "E1",
		Title:  "Basic primitive latency (empty transactions)",
		Anchor: "§2.1",
		Run:    runE1,
	})
	register(Experiment{
		ID:     "E6",
		Title:  "Group commit: log forces amortized over group size",
		Anchor: "§3.1.2 / §4.2 commit",
		Run:    runE6,
	})
	register(Experiment{
		ID:     "E7",
		Title:  "Delegation cost vs delegated set size",
		Anchor: "§3.1.5 split/join",
		Run:    runE7,
	})
}

func runE1(w io.Writer, quick bool) error {
	m, err := memManager()
	if err != nil {
		return err
	}
	defer m.Close()
	iters := pick(quick, 2_000, 50_000)
	noop := func(tx *asset.Tx) error { return nil }

	measure := func(fn func() error) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < iters; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		return time.Duration(int64(time.Since(start)) / int64(iters)), nil
	}

	var t Table
	t.Headers = []string{"primitive sequence", "latency/txn"}

	d, err := measure(func() error {
		t, err := m.Initiate(noop)
		if err != nil {
			return err
		}
		if err := m.Begin(t); err != nil {
			return err
		}
		return m.Commit(t)
	})
	if err != nil {
		return err
	}
	t.Add("initiate; begin; commit", d)

	d, err = measure(func() error {
		t, err := m.Initiate(noop)
		if err != nil {
			return err
		}
		if err := m.Begin(t); err != nil {
			return err
		}
		if err := m.Wait(t); err != nil {
			return err
		}
		return m.Commit(t)
	})
	if err != nil {
		return err
	}
	t.Add("initiate; begin; wait; commit", d)

	d, err = measure(func() error {
		t, err := m.Initiate(noop)
		if err != nil {
			return err
		}
		if err := m.Begin(t); err != nil {
			return err
		}
		if err := m.Wait(t); err != nil {
			return err
		}
		return m.Abort(t)
	})
	if err != nil {
		return err
	}
	t.Add("initiate; begin; wait; abort", d)

	d, err = measure(func() error {
		t, err := m.Initiate(noop)
		if err != nil {
			return err
		}
		return m.Abort(t) // abort before begin
	})
	if err != nil {
		return err
	}
	t.Add("initiate; abort", d)

	t.Fprint(w)
	return nil
}

func runE6(w io.Writer, quick bool) error {
	var t Table
	t.Headers = []string{"group size", "txns", "commit records", "forces/txn", "txn/s"}
	total := pick(quick, 256, 4096)
	for _, size := range []int{1, 2, 4, 8, 16, 32} {
		m, err := memManager()
		if err != nil {
			return err
		}
		groups := total / size
		fns := make([]asset.TxnFunc, size)
		for i := range fns {
			fns[i] = func(tx *asset.Tx) error { return nil }
		}
		start := time.Now()
		for g := 0; g < groups; g++ {
			if err := models.Distributed(m, fns...); err != nil {
				m.Close()
				return err
			}
		}
		wall := time.Since(start)
		st := m.Stats()
		t.Add(size, st.Commits, st.LogForces,
			fmt.Sprintf("%.3f", float64(st.LogForces)/float64(st.Commits)),
			fmt.Sprintf("%.0f", float64(st.Commits)/wall.Seconds()))
		m.Close()
	}
	t.Fprint(w)
	fmt.Fprintln(w, "  (one commit record and one log force cover a whole GC group)")

	// Part 2: classic group commit — independent concurrent transactions
	// share a physical force through the durable log's cohort protocol.
	var t2 Table
	t2.Headers = []string{"workers", "commits", "flush requests", "physical forces", "forces/txn"}
	dur := pick(quick, 60*time.Millisecond, 300*time.Millisecond)
	for _, workers := range pick(quick, []int{1, 8}, []int{1, 4, 16, 64}) {
		if err := e6Cohort(&t2, workers, dur); err != nil {
			return err
		}
	}
	t2.Fprint(w)
	fmt.Fprintln(w, "  (classic group commit: concurrent committers share the log's physical forces)")
	return nil
}

// e6Cohort adds one row of E6 part 2: workers closed-loop committers of
// empty transactions on a fresh synchronous durable database.
func e6Cohort(t *Table, workers int, dur time.Duration) error {
	dir, err := os.MkdirTemp("", "asset-e6-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	m, err := asset.Open(asset.Config{
		Dir:            dir,
		SyncCommits:    true,
		CommitWindow:   500 * time.Microsecond,
		ReapTerminated: true,
	})
	if err != nil {
		return err
	}
	defer m.Close()
	workload.RunClosed(workers, dur, func(_, _ int) error {
		return models.Atomic(m, func(tx *asset.Tx) error { return nil })
	})
	st := m.Stats()
	phys := m.PhysicalForces()
	t.Add(workers, st.Commits, st.LogForces, phys,
		fmt.Sprintf("%.3f", float64(phys)/float64(st.Commits)))
	return nil
}

func runE7(w io.Writer, quick bool) error {
	var t Table
	t.Headers = []string{"|ob_set|", "delegate(ti,tj,obs)", "delegate(ti,tj) all", "per object"}
	sizes := pick(quick, []int{10, 100, 1000}, []int{10, 100, 1000, 10000})
	for _, n := range sizes {
		m, err := memManager()
		if err != nil {
			return err
		}
		oids, err := seedObjects(m, n, 32)
		if err != nil {
			m.Close()
			return err
		}
		prep := func() (asset.TID, asset.TID, error) {
			worker, err := m.Initiate(func(tx *asset.Tx) error {
				for _, oid := range oids {
					if err := tx.Write(oid, []byte("w")); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return 0, 0, err
			}
			holder, err := m.Initiate(func(tx *asset.Tx) error { return nil })
			if err != nil {
				return 0, 0, err
			}
			if err := m.Begin(worker, holder); err != nil {
				return 0, 0, err
			}
			if err := m.Wait(worker); err != nil {
				return 0, 0, err
			}
			return worker, holder, nil
		}

		worker, holder, err := prep()
		if err != nil {
			m.Close()
			return err
		}
		start := time.Now()
		if err := m.Delegate(worker, holder, oids...); err != nil {
			m.Close()
			return err
		}
		dExplicit := time.Since(start)
		m.Commit(holder)
		m.Commit(worker)

		worker, holder, err = prep()
		if err != nil {
			m.Close()
			return err
		}
		start = time.Now()
		if err := m.Delegate(worker, holder); err != nil {
			m.Close()
			return err
		}
		dAll := time.Since(start)
		m.Commit(holder)
		m.Commit(worker)

		t.Add(n, dExplicit, dAll, time.Duration(int64(dAll)/int64(n)))
		m.Close()
	}
	t.Fprint(w)
	return nil
}
