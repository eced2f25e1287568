package engine

import (
	"fmt"
	"time"

	"rodsp/internal/obs"
	"rodsp/internal/placement"
	"rodsp/internal/query"
)

// Live operator migration — the dynamic-movement capability the paper
// contrasts ROD against (their prototype's "base overhead of run-time
// operator migration is on the order of a few hundred milliseconds").
//
// The protocol avoids tuple loss without global pauses:
//
//  1. the destination node installs the operator and its outbound routes;
//  2. both nodes charge a stall (the state-transfer cost) to their virtual
//     CPUs;
//  3. the source node removes the operator and converts its input streams
//     into relay routes toward the destination, so upstream producers and
//     source drivers keep sending to the old home and tuples take one extra
//     hop until the next full redeployment. Tuples queued there for the
//     operator follow it (removeOp); an operator moving back home retires
//     the relays its departure added, unless another departed operator
//     still relies on them (addOp).
//
// During the brief hand-over both homes may process a few of the same
// tuples (at-least-once), the usual trade of pause-free migration.

// MoveOperator migrates one operator to dstNode at runtime, updating the
// plan in place. stall is the simulated state-transfer time charged to both
// nodes' virtual CPUs (0 for stateless operators).
func (cl *Cluster) MoveOperator(g *query.Graph, plan *placement.Plan, opID query.OpID, dstNode int, stall time.Duration) error {
	if dstNode < 0 || dstNode >= len(cl.Nodes) {
		return fmt.Errorf("engine: destination node %d outside [0,%d)", dstNode, len(cl.Nodes))
	}
	if int(opID) < 0 || int(opID) >= g.NumOps() {
		return fmt.Errorf("engine: unknown operator %d", opID)
	}
	srcNode := plan.NodeOf[opID]
	if srcNode == dstNode {
		return nil
	}
	op := g.Op(opID)
	spec := opSpecOf(op)
	addrs := cl.Addrs()

	// Routes the destination needs: the operator's output fan-out under the
	// updated plan, plus local subscriptions for its input streams. A
	// splitter's output is keyed — it routes through a partition table
	// pushed separately below, never through broadcast fan-out (fan-out
	// would deliver every tuple to every replica).
	routes := map[int][]Dest{}
	consumers := g.Consumers(op.Out)
	if op.Shard != query.ShardSplit {
		remote := map[int]bool{}
		for _, c := range consumers {
			cn := plan.NodeOf[c]
			if cn == dstNode {
				routes[int(op.Out)] = append(routes[int(op.Out)], Dest{Local: true, LocalOp: int(c)})
			} else if !remote[cn] {
				remote[cn] = true
				routes[int(op.Out)] = append(routes[int(op.Out)], Dest{Addr: addrs[cn]})
			}
		}
		if len(consumers) == 0 && cl.Collector != nil {
			routes[int(op.Out)] = append(routes[int(op.Out)], Dest{Addr: cl.Collector.Addr()})
		}
	}
	for _, in := range op.Inputs {
		routes[int(in)] = append(routes[int(in)], Dest{Local: true, LocalOp: int(op.ID)})
	}

	// 1. Install at the destination.
	if err := cl.Controls[dstNode].AddOp(&spec, routes); err != nil {
		cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "addop", "node", dstNode, "err", err.Error())
		return fmt.Errorf("engine: installing op %d on node %d: %w", opID, dstNode, err)
	}
	cl.events.Emit(obs.LevelInfo, obs.EventMigrateInstall,
		"op", int(opID), "from", srcNode, "to", dstNode)

	// abort rolls the destination install back after a later step failed, so
	// the operator is never left live on both homes with no relay and a
	// stale plan. If the rollback itself fails (destination died too), the
	// plan still reflects reality — the source copy is the only survivor.
	abort := func(step string, cause error) error {
		if rbErr := cl.Controls[dstNode].RemoveOp(int(op.ID), nil); rbErr != nil {
			cl.events.Emit(obs.LevelWarn, obs.EventControlError,
				"op", "rollback", "node", dstNode, "err", rbErr.Error())
		}
		cl.events.Emit(obs.LevelWarn, obs.EventMigrateAbort,
			"op", int(opID), "from", srcNode, "to", dstNode,
			"step", step, "err", cause.Error())
		return fmt.Errorf("engine: migrating op %d to node %d aborted at %s (destination rolled back): %w",
			opID, dstNode, step, cause)
	}

	// Sharded operators carry keyed routing state: the destination must
	// hold a partition table marking the moved shard local *before* the
	// source gives the operator up, or a destination already hosting a
	// sibling replica would bounce the shard's tuples back per its stale
	// table (a routing loop, since the source then forwards them right
	// back). A migrating splitter likewise needs the table at its new home
	// to route its own keyed output.
	var shardSt *shardState
	var shardSid int
	switch {
	case op.Shard == query.ShardReplica && len(op.Inputs) == 1:
		shardSid = int(op.Inputs[0])
	case op.Shard == query.ShardSplit:
		shardSid = int(op.Out)
	}
	if op.Shard == query.ShardReplica || op.Shard == query.ShardSplit {
		cl.shardMu.Lock()
		shardSt = cl.shards[shardSid]
		var dstSpec *PartitionSpec
		if shardSt != nil {
			nodeOf := append([]int(nil), plan.NodeOf...)
			nodeOf[opID] = dstNode
			ps := shardSt.specFor(shardSid, dstNode, nodeOf, addrs)
			dstSpec = &ps
		}
		cl.shardMu.Unlock()
		if dstSpec != nil {
			if err := cl.Controls[dstNode].Repart(dstSpec); err != nil {
				cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "repart", "node", dstNode, "err", err.Error())
				return abort("repart_dst", err)
			}
		}
	}

	// 2. State-transfer stall on both ends.
	if stall > 0 {
		if err := cl.Controls[srcNode].Stall(stall); err != nil {
			cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "stall", "node", srcNode, "err", err.Error())
			return abort("stall_src", err)
		}
		if err := cl.Controls[dstNode].Stall(stall); err != nil {
			cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "stall", "node", dstNode, "err", err.Error())
			return abort("stall_dst", err)
		}
		cl.events.Emit(obs.LevelInfo, obs.EventMigrateStall,
			"op", int(opID), "sec", stall.Seconds())
	}
	// 3. Remove at the source, relaying its inputs toward the destination.
	relay := map[int][]Dest{}
	for _, in := range op.Inputs {
		relay[int(in)] = append(relay[int(in)], Dest{Addr: addrs[dstNode]})
	}
	if err := cl.Controls[srcNode].RemoveOp(int(op.ID), relay); err != nil {
		cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "removeop", "node", srcNode, "err", err.Error())
		return abort("removeop", fmt.Errorf("engine: removing op %d from node %d: %w", opID, srcNode, err))
	}
	cl.events.Emit(obs.LevelInfo, obs.EventMigrateRemove,
		"op", int(opID), "from", srcNode, "to", dstNode)
	plan.NodeOf[opID] = dstNode
	// Keep the Deploy-time plan (the shard table pushes' source of truth)
	// tracking migrations executed against a caller-owned plan copy.
	cl.shardMu.Lock()
	if cl.plan != nil && cl.plan != plan && int(opID) < len(cl.plan.NodeOf) {
		cl.plan.NodeOf[opID] = dstNode
	}
	cl.shardMu.Unlock()
	if cl.monitor != nil {
		cl.monitor.setOp(opID, dstNode)
	}

	// Refresh every remaining table holder (splitter home, sibling replica
	// homes, the vacated source) so keyed tuples stop detouring through the
	// old home's relay. Push failures only warn: a stale table still routes
	// correctly via that relay, so the move itself has succeeded.
	if shardSt != nil {
		nodeOf := append([]int(nil), plan.NodeOf...)
		involved := shardSt.nodes(nodeOf)
		hasSrc := false
		for _, nd := range involved {
			if nd == srcNode {
				hasSrc = true
			}
		}
		if !hasSrc {
			involved = append(involved, srcNode)
		}
		for _, nd := range involved {
			if nd == dstNode {
				continue // already holds the updated table
			}
			ps := shardSt.specFor(shardSid, nd, nodeOf, addrs)
			if err := cl.Controls[nd].Repart(&ps); err != nil {
				cl.events.Emit(obs.LevelWarn, obs.EventControlError,
					"op", "repart", "node", nd, "err", err.Error())
			}
		}
	}
	return nil
}

// opSpecOf converts a graph operator to its wire form.
func opSpecOf(op *query.Operator) OpSpec {
	ins := make([]int, len(op.Inputs))
	for i, in := range op.Inputs {
		ins[i] = int(in)
	}
	return OpSpec{
		ID:          int(op.ID),
		Name:        op.Name,
		Kind:        op.Kind.String(),
		Cost:        op.Cost,
		Selectivity: op.Selectivity,
		Window:      op.Window,
		Inputs:      ins,
		Out:         int(op.Out),
	}
}

// AddOp installs an operator and merges routes at runtime.
func (c *ControlClient) AddOp(spec *OpSpec, routes map[int][]Dest) error {
	_, err := c.call(&controlRequest{Cmd: "addop", Op: spec, Routes: routes})
	return err
}

// RemoveOp uninstalls an operator, replacing the local subscriptions of its
// input streams with the given relay routes.
func (c *ControlClient) RemoveOp(id int, relay map[int][]Dest) error {
	_, err := c.call(&controlRequest{Cmd: "removeop", OpID: &id, Routes: relay})
	return err
}

// Stall charges the node's virtual CPU with a state-transfer pause.
func (c *ControlClient) Stall(d time.Duration) error {
	sec := d.Seconds()
	_, err := c.call(&controlRequest{Cmd: "stall", StallSec: &sec})
	return err
}
