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
//  1. the destination node installs the operator and the forwards for its
//     output, which go where the deployed spec sends that stream; an entry
//     its earlier departure from there left is deleted;
//  2. both nodes charge a stall (the state-transfer cost) to their virtual
//     CPUs, which delays their tuples only by what exceeds each node's
//     idle credit (see Node.stall) — a charge, not a pause;
//  3. the source node removes the operator and records, on each input
//     stream, a relay entry naming it and the destination. Upstream
//     producers and source drivers keep sending to the deployed homes; a
//     home's lane worker copies each tuple queued for, or arriving after,
//     the departed operator along the entries, addressed to it, until the
//     next full redeployment.
//
// Because the copies are addressed, the destination may be any node: one
// that already carries the operator's streams for other consumers delivers
// their untargeted tuples to those consumers only, and an operator back at
// its deployed home takes the untargeted tuples again. Each tuple a worker
// takes meets one route snapshot, so it is stepped by the operator or
// copied toward it, never both and never neither.

// MoveOperator migrates one operator to dstNode at runtime, updating the
// plan in place. stall is the simulated state-transfer time charged to both
// nodes' virtual CPUs (0 for stateless operators). The charge pauses
// neither node: it delays a node's tuples only by what exceeds the node's
// idle credit (see Node.stall), so a move between lightly loaded nodes
// costs them nothing and one off a saturated node holds it for up to
// stall.
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

	// Routes the destination needs: the operator's output fan-out toward
	// each consumer's deployed home (a consumer that moved since is reached
	// through the relay entry its departure left there; one whose home is
	// the destination is subscribed there already). A splitter's output is
	// keyed — it routes through a partition table pushed separately below,
	// never through broadcast fan-out (fan-out would deliver every tuple to
	// every replica).
	cl.shardMu.Lock()
	homes := cl.homes
	cl.shardMu.Unlock()
	if len(homes) != g.NumOps() {
		return fmt.Errorf("engine: the deployed placement covers %d operators, the graph %d (deploy it first)", len(homes), g.NumOps())
	}
	routes := map[int][]Dest{}
	consumers := g.Consumers(op.Out)
	if op.Shard != query.ShardSplit {
		remote := map[int]bool{dstNode: true}
		for _, c := range consumers {
			if cn := homes[c]; !remote[cn] {
				remote[cn] = true
				routes[int(op.Out)] = append(routes[int(op.Out)], Dest{Addr: addrs[cn]})
			}
		}
		if len(consumers) == 0 && cl.Collector != nil {
			routes[int(op.Out)] = append(routes[int(op.Out)], Dest{Addr: cl.Collector.Addr()})
		}
	}
	// relayTo names node's address on each of the operator's inputs: the
	// relay entries a removal records.
	relayTo := func(node int) map[int][]Dest {
		relay := map[int][]Dest{}
		for _, in := range op.Inputs {
			relay[int(in)] = []Dest{{Addr: addrs[node]}}
		}
		return relay
	}

	// 1. Install at the destination.
	if err := cl.Controls[dstNode].AddOp(&spec, routes); err != nil {
		cl.events.Emit(obs.LevelWarn, obs.EventControlError, "op", "addop", "node", dstNode, "err", err.Error())
		return fmt.Errorf("engine: installing op %d on node %d: %w", opID, dstNode, err)
	}
	cl.events.Emit(obs.LevelInfo, obs.EventMigrateInstall,
		"op", int(opID), "from", srcNode, "to", dstNode)

	// abort rolls the destination install back after a later step failed, so
	// the operator is never left live on both homes and the plan stays true.
	// The rollback leaves a relay entry back to the source, which carries
	// on whatever the destination had started to take (and, when the
	// destination is the operator's deployed home, the tuples it receives
	// there). If the rollback itself fails (destination died too), the plan
	// still reflects reality — the source copy is the only survivor.
	abort := func(step string, cause error) error {
		if rbErr := cl.Controls[dstNode].RemoveOp(int(op.ID), relayTo(srcNode)); rbErr != nil {
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
	if err := cl.Controls[srcNode].RemoveOp(int(op.ID), relayTo(dstNode)); err != nil {
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

// AddOp installs an operator and merges the forwards of its output at
// runtime; local subscriptions come from the deployed spec alone.
func (c *ControlClient) AddOp(spec *OpSpec, routes map[int][]Dest) error {
	_, err := c.call(&controlRequest{Cmd: "addop", Op: spec, Routes: routes})
	return err
}

// RemoveOp uninstalls an operator, recording the given relay routes (one
// node per input stream) as where its tuples follow it.
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
