package client

import (
	"context"
	"fmt"

	"repro/internal/rpc"
	"repro/internal/xid"
)

// The distributed-commit surface: a coordinator (txcoord) drives these
// against each participant server. Prepare/Decide ride the session's
// idempotent request machinery, so retransmits across reconnects are safe.

// Prepare asks the server to prepare the GC closure of tids as
// distributed group gid. A nil return is the participant's yes vote —
// the group is durably prepared and immune to unilateral abort until
// Decide delivers the verdict.
func (c *Client) Prepare(ctx context.Context, gid uint64, tids ...xid.TID) error {
	raw := make([]uint64, len(tids))
	for i, t := range tids {
		raw[i] = uint64(t)
	}
	_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpPrepare, Other: gid, Data: rpc.EncodeTIDs(raw)})
	return err
}

// Decide delivers the coordinator's verdict for group gid to this
// participant. Duplicated and reordered deliveries are idempotent.
func (c *Client) Decide(ctx context.Context, gid uint64, commit bool) error {
	var mode uint64
	if commit {
		mode = 1
	}
	_, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpDecide, Other: gid, Mode: mode})
	return err
}

// QueryVerdict asks the coordinator co-located with this server for
// group gid's durable verdict. Querying an undecided group forces a
// durable abort decision (presumed abort), so the answer is final either
// way — the multi-shot recovery path a restarted participant relies on.
func (c *Client) QueryVerdict(ctx context.Context, gid uint64) (commit bool, err error) {
	resp, err := c.roundTrip(ctx, rpc.Request{Op: rpc.OpVerdictQuery, Other: gid})
	if err != nil {
		return false, err
	}
	switch resp.Val {
	case 1:
		return true, nil
	case 2:
		return false, nil
	}
	return false, fmt.Errorf("client: malformed verdict %d for group %d", resp.Val, gid)
}
