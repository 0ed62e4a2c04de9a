package server_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/client"
	"repro/internal/core"
	"repro/internal/faultnet"
	"repro/internal/server"
	"repro/internal/xid"
)

// Tests of the two recycling rules the allocation-free wire path rests on
// (run them under -race): a frame buffer belongs to its request until the
// request's dispatch has finished, and a pooled client call never receives
// a previous life's response.

// quietOptions keeps the client's own traffic (heartbeats, retransmits)
// out of a test that counts or scripts individual messages.
func quietOptions() client.Options {
	return client.Options{RetransmitEvery: time.Hour, HeartbeatEvery: time.Hour}
}

// beginTx initiates and begins a transaction on cli.
func beginTx(t *testing.T, cli *client.Client) *client.Tx {
	t.Helper()
	ctx := context.Background()
	tid, err := cli.Initiate(ctx)
	if err != nil {
		t.Fatalf("Initiate: %v", err)
	}
	if err := cli.Begin(ctx, tid); err != nil {
		t.Fatalf("Begin: %v", err)
	}
	return cli.Tx(tid)
}

// createObjects commits one object per value and returns their oids.
func createObjects(t *testing.T, cli *client.Client, values ...[]byte) []xid.OID {
	t.Helper()
	oids := make([]xid.OID, len(values))
	err := cli.Run(context.Background(), core.RunOptions{}, func(ctx context.Context, tx *client.Tx) error {
		for i, v := range values {
			oid, err := tx.Create(ctx, v)
			if err != nil {
				return err
			}
			oids[i] = oid
		}
		return nil
	})
	if err != nil {
		t.Fatalf("create objects: %v", err)
	}
	return oids
}

// waitParked blocks until n transactions wait for a lock at the manager.
func waitParked(t *testing.T, m *core.Manager, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for len(m.WaitGraph().Waiters()) < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d lock waiters after 5s, want %d", len(m.WaitGraph().Waiters()), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRequestDataOutlivesSuccessorFrames: a Write parks on a lock with its
// Data still in the frame buffer it arrived in; the connection then
// carries a successor Write of the same size and a few hundred further
// frames, all decoded and recycled, before the lock is released. The
// parked request's bytes must reach tx.Write untouched — its buffer is
// its own until its dispatch finishes.
func TestRequestDataOutlivesSuccessorFrames(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: time.Minute})
	cli := f.dial(quietOptions())
	ctx := context.Background()
	first, second := bytes.Repeat([]byte{0xAA}, 256), bytes.Repeat([]byte{0x55}, 256)
	oids := createObjects(t, cli, make([]byte, 256), make([]byte, 256))
	a, b := oids[0], oids[1]

	holder := beginTx(t, cli)
	if err := holder.Lock(ctx, a, xid.OpWrite); err != nil {
		t.Fatalf("holder Lock: %v", err)
	}
	parked, other := beginTx(t, cli), beginTx(t, cli)
	done := make(chan error, 1)
	go func() { done <- parked.Write(ctx, a, first) }()
	waitParked(t, f.m, 1)

	// The successor frame, then churn: every one of these is read into a
	// pooled buffer, decoded, answered and recycled while the first
	// request still waits.
	if err := other.Write(ctx, b, second); err != nil {
		t.Fatalf("successor Write: %v", err)
	}
	for i := 0; i < 300; i++ {
		if err := other.Write(ctx, b, second); err != nil {
			t.Fatalf("churn Write %d: %v", i, err)
		}
	}
	select {
	case err := <-done:
		t.Fatalf("parked Write returned early: %v", err)
	default:
	}
	if err := cli.Commit(ctx, holder.ID()); err != nil {
		t.Fatalf("holder Commit: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked Write: %v", err)
	}
	for _, tx := range []*client.Tx{parked, other} {
		if err := cli.Commit(ctx, tx.ID()); err != nil {
			t.Fatalf("Commit: %v", err)
		}
	}
	reader := beginTx(t, cli)
	for _, want := range []struct {
		oid xid.OID
		val []byte
	}{{a, first}, {b, second}} {
		got, err := reader.Read(ctx, want.oid)
		if err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(got, want.val) {
			t.Fatalf("object %v holds % x…, want % x…", want.oid, got[:8], want.val[:8])
		}
	}
	if err := cli.Commit(ctx, reader.ID()); err != nil {
		t.Fatalf("reader Commit: %v", err)
	}
	f.quiesce()
}

// TestReadResultSurvivesLaterRoundTrips: the slice Tx.Read returns is the
// caller's own copy, not a view of a frame buffer the next responses are
// read into.
func TestReadResultSurvivesLaterRoundTrips(t *testing.T) {
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: time.Minute})
	cli := f.dial(quietOptions())
	ctx := context.Background()
	want, noise := bytes.Repeat([]byte{0xC3}, 128), bytes.Repeat([]byte{0x3C}, 128)
	oids := createObjects(t, cli, want, noise)
	tx := beginTx(t, cli)
	got, err := tx.Read(ctx, oids[0])
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := tx.Read(ctx, oids[1]); err != nil {
			t.Fatalf("Read %d: %v", i, err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Read result changed under later round trips: % x…", got[:8])
	}
	if err := cli.Commit(ctx, tx.ID()); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	f.quiesce()
}

// TestRecycledCallNeverSeesStaleResponse: a Read's response is held in the
// network while its caller gives up, so its call goes back to the pool
// unanswered. The next request — most likely the same call, recycled — is
// parked on a lock when the late response finally arrives. It must not be
// answered by it: it returns only once its own lock wait ends, with its
// own object's value.
func TestRecycledCallNeverSeesStaleResponse(t *testing.T) {
	const delay = 150 * time.Millisecond
	f := newFixture(t, core.Config{}, server.Config{LeaseTTL: time.Minute})
	cli := f.dial(quietOptions())
	ctx := context.Background()
	oids := createObjects(t, cli, []byte("first object"), []byte("second object"))
	stale, fresh := oids[0], oids[1]

	holder := beginTx(t, cli)
	if err := holder.Lock(ctx, fresh, xid.OpWrite); err != nil {
		t.Fatalf("holder Lock: %v", err)
	}
	tx := beginTx(t, cli)

	// From here the script sees: the Read request (1), its response (2,
	// delayed), then whatever follows, untouched.
	script := faultnet.NewScript(faultnet.Rule{Dir: faultnet.ServerToClient, Nth: 2, Kind: faultnet.Delay, Duration: delay})
	f.fabric.SetScript(script)
	readCtx, cancel := context.WithCancel(ctx)
	abandoned := make(chan error, 1)
	go func() {
		_, err := tx.Read(readCtx, stale)
		abandoned <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); script.Fired() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the Read's response never entered the network")
		}
		time.Sleep(time.Millisecond)
	}
	sent := time.Now()
	cancel()
	if err := <-abandoned; err == nil {
		t.Fatal("abandoned Read returned a result")
	}

	type result struct {
		data []byte
		err  error
	}
	next := make(chan result, 1)
	go func() {
		data, err := tx.Read(ctx, fresh)
		next <- result{data, err}
	}()
	waitParked(t, f.m, 1)
	// Let the held response land on the client while the new request is
	// parked. (A timer is being waited out here, not raced.)
	time.Sleep(time.Until(sent.Add(delay + 100*time.Millisecond)))
	select {
	case r := <-next:
		t.Fatalf("parked Read answered before its lock wait ended: %q, %v", r.data, r.err)
	default:
	}
	if err := cli.Commit(ctx, holder.ID()); err != nil {
		t.Fatalf("holder Commit: %v", err)
	}
	r := <-next
	if r.err != nil || string(r.data) != "second object" {
		t.Fatalf("Read after recycling = %q, %v; want its own object's value", r.data, r.err)
	}
	// The session is still in step: a third Read sees its own answer too.
	if data, err := tx.Read(ctx, stale); err != nil || string(data) != "first object" {
		t.Fatalf("follow-up Read = %q, %v", data, err)
	}
	if err := cli.Commit(ctx, tx.ID()); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	f.quiesce()
}
