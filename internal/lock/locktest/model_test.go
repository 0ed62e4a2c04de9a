package locktest

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/lock"
	"repro/internal/waitgraph"
	"repro/internal/xid"
)

// refModel is a deliberately naive single-structure reference
// implementation of the ASSET lock-manager semantics: one flat lock map,
// one flat permit list, no latches, no queues. Applied to a sequential
// schedule it must agree exactly with the sharded manager — any divergence
// means the sharding refactor changed semantics, not just concurrency.
//
// Sequential schedules keep the pending queues empty (a blocked request
// reaches its context's deadline and is withdrawn before the next operation
// runs), so queue fairness never influences outcomes and the model can
// decide grant/block from the granted group and permit set alone.
type refModel struct {
	eager   bool
	locks   map[xid.OID]map[xid.TID]*refLock
	permits []*refPermit
}

type refLock struct {
	mode      xid.OpSet
	suspended bool
}

type refPermit struct {
	grantor, grantee xid.TID
	oid              xid.OID
	ops              xid.OpSet
}

func newRefModel(eager bool) *refModel {
	return &refModel{eager: eager, locks: make(map[xid.OID]map[xid.TID]*refLock)}
}

// lock attempts the acquisition and reports whether it was granted,
// mirroring §4.2 steps 1a/1b/2 as implemented by the manager.
func (r *refModel) lock(tid xid.TID, oid xid.OID, mode xid.OpSet) bool {
	own := r.locks[oid][tid]
	if own != nil && !own.suspended && own.mode.Has(mode) {
		return true
	}
	var permitted []*refLock
	for htid, hl := range r.locks[oid] {
		if htid == tid || !hl.mode.Conflicts(mode) {
			continue
		}
		if !r.permitsQ(htid, tid, oid, mode) {
			return false // blocked; the real manager times out
		}
		permitted = append(permitted, hl)
	}
	for _, hl := range permitted {
		hl.suspended = true
	}
	if own != nil {
		own.mode = own.mode.Union(mode)
		own.suspended = false
		return true
	}
	if r.locks[oid] == nil {
		r.locks[oid] = make(map[xid.TID]*refLock)
	}
	r.locks[oid][tid] = &refLock{mode: mode}
	return true
}

func (r *refModel) holds(tid xid.TID, oid xid.OID, mode xid.OpSet) bool {
	gl := r.locks[oid][tid]
	return gl != nil && !gl.suspended && gl.mode.Has(mode)
}

// permitsQ answers "does holder permit requester for ops on oid": a direct
// descriptor scan under eager closure, a grantor-chain DFS under lazy.
func (r *refModel) permitsQ(holder, requester xid.TID, oid xid.OID, ops xid.OpSet) bool {
	if r.eager {
		for _, p := range r.permits {
			if p.oid == oid && p.grantor == holder &&
				(p.grantee == requester || p.grantee.IsNil()) && p.ops.Has(ops) {
				return true
			}
		}
		return false
	}
	type node struct {
		tid xid.TID
		ops xid.OpSet
	}
	visited := make(map[xid.TID]xid.OpSet)
	stack := []node{{holder, xid.OpAll}}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if visited[n.tid].Has(n.ops) {
			continue
		}
		visited[n.tid] = visited[n.tid].Union(n.ops)
		for _, p := range r.permits {
			if p.oid != oid || p.grantor != n.tid {
				continue
			}
			shared := p.ops.Intersect(n.ops)
			if !shared.Has(ops) {
				continue
			}
			if p.grantee == requester || p.grantee.IsNil() {
				return true
			}
			stack = append(stack, node{p.grantee, shared})
		}
	}
	return false
}

// insertPD adds or widens one descriptor, reporting whether the permission
// grew — the same contract the manager's insertPD has.
func (r *refModel) insertPD(oid xid.OID, grantor, grantee xid.TID, ops xid.OpSet) bool {
	for _, p := range r.permits {
		if p.oid != oid || p.grantor != grantor || p.grantee != grantee {
			continue
		}
		if p.ops.Has(ops) {
			return false
		}
		p.ops = p.ops.Union(ops)
		return true
	}
	r.permits = append(r.permits, &refPermit{grantor: grantor, grantee: grantee, oid: oid, ops: ops})
	return true
}

func (r *refModel) permit(grantor, grantee xid.TID, oids []xid.OID, ops xid.OpSet) {
	if ops == 0 {
		ops = xid.OpAll
	}
	if oids == nil {
		oids = r.accessible(grantor)
	}
	for _, oid := range oids {
		// Worklist identical to the manager's permitOneLocked: under eager
		// closure a grown permission from g derives one from everyone who
		// permitted g, recursively (the paper's backward transitivity rule).
		type ins struct {
			grantor, grantee xid.TID
			ops              xid.OpSet
		}
		work := []ins{{grantor, grantee, ops}}
		for len(work) > 0 {
			w := work[len(work)-1]
			work = work[:len(work)-1]
			if w.grantor == w.grantee && !w.grantee.IsNil() {
				continue
			}
			grew := r.insertPD(oid, w.grantor, w.grantee, w.ops)
			if !grew || !r.eager {
				continue
			}
			for _, p := range r.permits {
				if p.oid == oid && (p.grantee == w.grantor || p.grantee.IsNil()) && p.grantor != w.grantor {
					if shared := p.ops.Intersect(w.ops); shared != 0 {
						work = append(work, ins{p.grantor, w.grantee, shared})
					}
				}
			}
		}
	}
}

func (r *refModel) accessible(tid xid.TID) []xid.OID {
	seen := make(map[xid.OID]bool)
	var out []xid.OID
	for oid, holders := range r.locks {
		if holders[tid] != nil && !seen[oid] {
			seen[oid] = true
			out = append(out, oid)
		}
	}
	for _, p := range r.permits {
		if p.grantee == tid && !seen[p.oid] {
			seen[p.oid] = true
			out = append(out, p.oid)
		}
	}
	return out
}

func (r *refModel) delegate(from, to xid.TID, oids []xid.OID) {
	if from == to {
		return
	}
	var candidates []xid.OID
	if oids == nil {
		for oid, holders := range r.locks {
			if holders[from] != nil {
				candidates = append(candidates, oid)
			}
		}
	} else {
		for _, oid := range oids {
			if r.locks[oid][from] != nil {
				candidates = append(candidates, oid)
			}
		}
	}
	for _, oid := range candidates {
		gl := r.locks[oid][from]
		delete(r.locks[oid], from)
		if existing := r.locks[oid][to]; existing != nil {
			existing.mode = existing.mode.Union(gl.mode)
			existing.suspended = existing.suspended && gl.suspended
		} else {
			r.locks[oid][to] = gl
		}
	}
	// Permissions given by from on the delegated objects (all, for
	// delegate-all) move to to — widening via plain insertPD, with no
	// transitive closure, exactly like the manager's reassignGrantor.
	var want map[xid.OID]bool
	if oids != nil {
		want = make(map[xid.OID]bool, len(oids))
		for _, o := range oids {
			want[o] = true
		}
	}
	kept := r.permits[:0]
	var regrant []*refPermit
	for _, p := range r.permits {
		if p.grantor != from || (want != nil && !want[p.oid]) {
			kept = append(kept, p)
			continue
		}
		if p.grantee != to {
			regrant = append(regrant, p)
		}
	}
	r.permits = kept
	for _, p := range regrant {
		r.insertPD(p.oid, to, p.grantee, p.ops)
	}
}

func (r *refModel) releaseAll(tid xid.TID) {
	for _, holders := range r.locks {
		delete(holders, tid)
	}
	kept := r.permits[:0]
	for _, p := range r.permits {
		if p.grantor == tid || p.grantee == tid {
			continue
		}
		kept = append(kept, p)
	}
	r.permits = kept
}

// TestShardedMatchesReferenceModel replays randomized sequential schedules
// of lock/permit/delegate/release operations against both the sharded
// manager and the single-structure reference model and requires identical
// grant decisions, hold states, and permission answers, across shard
// counts and closure modes.
func TestShardedMatchesReferenceModel(t *testing.T) {
	const (
		nTxns    = 6
		nObjects = 8
		nOps     = 400
	)
	for _, shards := range []int{1, 2, 64} {
		for _, eager := range []bool{true, false} {
			for seed := int64(1); seed <= 6; seed++ {
				shards, eager, seed := shards, eager, seed
				mode := map[bool]string{true: "eager", false: "lazy"}[eager]
				t.Run(map[int]string{1: "shards1", 2: "shards2", 64: "shards64"}[shards]+"/"+mode, func(t *testing.T) {
					runModelComparison(t, shards, eager, seed, nTxns, nObjects, nOps)
				})
			}
		}
	}
}

func runModelComparison(t *testing.T, shards int, eager bool, seed int64, nTxns, nObjects, nOps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	m := lock.New(waitgraph.New(), lock.Options{
		Shards:       shards,
		EagerClosure: eager,
	})
	ref := newRefModel(eager)

	tid := func(i int) xid.TID { return xid.TID(i + 1) }
	randOps := func() xid.OpSet { return modes[rng.Intn(len(modes))] }

	for op := 0; op < nOps; op++ {
		me := tid(rng.Intn(nTxns))
		oid := xid.OID(rng.Intn(nObjects) + 1)
		switch r := rng.Intn(100); {
		case r < 55:
			mode := randOps()
			want := ref.lock(me, oid, mode)
			// A blocked sequential request must withdraw quickly so the
			// schedule can continue; 1ms keeps the full sweep fast. One the
			// model grants is granted at once or never, so it gets a long
			// bound that only a wrongly blocked request reaches.
			bound := time.Millisecond
			if want {
				bound = 10 * time.Second
			}
			ctx, cancel := context.WithTimeout(context.Background(), bound)
			err := m.LockCtx(ctx, me, oid, mode)
			cancel()
			if got := err == nil; got != want {
				t.Fatalf("op %d (seed %d): Lock(%v,%v,%v) granted=%v, model says %v (err=%v)",
					op, seed, me, oid, mode, got, want, err)
			}
			if err != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("op %d (seed %d): sequential blocked Lock returned %v, want its deadline", op, seed, err)
			}
		case r < 72:
			grantee := xid.NilTID
			if rng.Intn(3) > 0 {
				grantee = tid(rng.Intn(nTxns))
			}
			var oids []xid.OID
			if rng.Intn(3) > 0 {
				oids = []xid.OID{oid}
			}
			ops := randOps()
			m.Permit(me, grantee, oids, ops)
			ref.permit(me, grantee, oids, ops)
		case r < 85:
			to := tid(rng.Intn(nTxns))
			var oids []xid.OID
			if rng.Intn(2) == 0 {
				oids = []xid.OID{oid}
			}
			m.Delegate(me, to, oids)
			ref.delegate(me, to, oids)
		default:
			m.ReleaseAll(me)
			ref.releaseAll(me)
		}

		// Cross-check observable state on a sampled slice of the space.
		for probe := 0; probe < 4; probe++ {
			pt := tid(rng.Intn(nTxns))
			po := xid.OID(rng.Intn(nObjects) + 1)
			pm := modes[rng.Intn(len(modes))]
			if got, want := m.Holds(pt, po, pm), ref.holds(pt, po, pm); got != want {
				t.Fatalf("op %d (seed %d): Holds(%v,%v,%v)=%v, model says %v", op, seed, pt, po, pm, got, want)
			}
			qt := tid(rng.Intn(nTxns))
			if got, want := m.Permitted(pt, qt, po, pm), ref.permitsQ(pt, qt, po, pm); got != want {
				t.Fatalf("op %d (seed %d): Permitted(%v,%v,%v,%v)=%v, model says %v", op, seed, pt, qt, po, pm, got, want)
			}
		}
	}
	if errs := m.CheckInvariants(); len(errs) > 0 {
		t.Fatalf("invariants violated at end of schedule (seed %d):\n%s", seed, joinLines(errs))
	}
}
