package engine

import (
	"fmt"

	"rodsp/internal/placement"
	"rodsp/internal/query"
)

// OpSpec deploys one operator onto a node.
type OpSpec struct {
	ID          int     `json:"id"`
	Name        string  `json:"name"`
	Kind        string  `json:"kind"`
	Cost        float64 `json:"cost"`
	Selectivity float64 `json:"selectivity"`
	Window      float64 `json:"window,omitempty"`
	Inputs      []int   `json:"inputs"` // stream ids
	Out         int     `json:"out"`    // output stream id
}

// Dest routes a stream: either to a local operator, to a remote node's
// address, or to the collector address (sink latency measurement).
type Dest struct {
	LocalOp int    `json:"localOp,omitempty"`
	Addr    string `json:"addr,omitempty"`
	Local   bool   `json:"local"`
}

// PartitionSpec installs the keyed routing table of one sharded stream on a
// node: the fixed slot table (query.ShardSlots entries, slot → shard index)
// and the per-shard destination — local when that replica lives on this
// node, the replica's node address otherwise. Every node hosting the
// splitter or any replica carries the table, so each can route a keyed
// tuple to exactly one replica wherever it arrives.
type PartitionSpec struct {
	Stream int    `json:"stream"`
	Parent string `json:"parent"`
	K      int    `json:"k"`
	Slots  []int  `json:"slots"`
	Shards []Dest `json:"shards"` // shard index → destination
	Ops    []int  `json:"ops"`    // shard index → replica operator id
}

// NodeSpec is the full deployment for one node.
type NodeSpec struct {
	NodeID   int             `json:"nodeId"`
	Capacity float64         `json:"capacity"`
	Ops      []OpSpec        `json:"ops"`
	Routes   map[int][]Dest  `json:"routes"` // stream id → destinations
	XferCost map[int]float64 `json:"xferCost,omitempty"`
	Parts    []PartitionSpec `json:"parts,omitempty"`
}

// BuildSpecs compiles a graph + plan into one deployment spec per node.
// addrs maps node index → data-plane address; collector is where sink
// streams are shipped for latency measurement ("" drops sink tuples).
func BuildSpecs(g *query.Graph, plan *placement.Plan, capacities []float64, addrs []string, collector string) ([]*NodeSpec, error) {
	if plan.NumOps() != g.NumOps() {
		return nil, fmt.Errorf("engine: plan covers %d of %d operators", plan.NumOps(), g.NumOps())
	}
	if len(addrs) != plan.N || len(capacities) != plan.N {
		return nil, fmt.Errorf("engine: need %d addrs and capacities, got %d/%d", plan.N, len(addrs), len(capacities))
	}
	specs := make([]*NodeSpec, plan.N)
	for i := range specs {
		specs[i] = &NodeSpec{
			NodeID:   i,
			Capacity: capacities[i],
			Routes:   map[int][]Dest{},
			XferCost: map[int]float64{},
		}
	}
	for _, op := range g.Ops() {
		node := plan.NodeOf[op.ID]
		ins := make([]int, len(op.Inputs))
		for k, in := range op.Inputs {
			ins[k] = int(in)
		}
		specs[node].Ops = append(specs[node].Ops, OpSpec{
			ID:          int(op.ID),
			Name:        op.Name,
			Kind:        op.Kind.String(),
			Cost:        op.Cost,
			Selectivity: op.Selectivity,
			Window:      op.Window,
			Inputs:      ins,
			Out:         int(op.Out),
		})
	}
	// Keyed (sharded) streams route through a partition table, not the
	// broadcast fan-out below: each tuple goes to exactly one replica.
	groups, err := query.ShardGroups(g)
	if err != nil {
		return nil, err
	}
	keyed := map[query.StreamID]query.ShardGroup{}
	for _, grp := range groups {
		keyed[grp.Stream] = grp
	}
	for _, grp := range groups {
		onNode := map[int]bool{plan.NodeOf[grp.Split]: true}
		for _, r := range grp.Replicas {
			onNode[plan.NodeOf[r]] = true
		}
		s := g.Stream(grp.Stream)
		for node := range onNode {
			ps := PartitionSpec{
				Stream: int(grp.Stream),
				Parent: grp.Parent,
				K:      grp.K,
				Slots:  query.UniformSlots(grp.K),
				Shards: make([]Dest, grp.K),
				Ops:    make([]int, grp.K),
			}
			for i, r := range grp.Replicas {
				ps.Ops[i] = int(r)
				if rn := plan.NodeOf[r]; rn == node {
					ps.Shards[i] = Dest{Local: true, LocalOp: int(r)}
				} else {
					ps.Shards[i] = Dest{Addr: addrs[rn]}
				}
			}
			specs[node].Parts = append(specs[node].Parts, ps)
			if s.XferCost > 0 {
				specs[node].XferCost[int(s.ID)] = s.XferCost
			}
		}
	}

	// Routing: every stream's producer node forwards to each consumer —
	// locally when co-located, to the consumer's node address otherwise.
	// Remote deliveries are deduplicated per destination node (the receiving
	// node fans out to its own local consumers).
	for _, s := range g.Streams() {
		if _, isKeyed := keyed[s.ID]; isKeyed {
			continue
		}
		consumers := g.Consumers(s.ID)
		producerNodes := producerNodesOf(g, plan, s.ID)
		for _, prodNode := range producerNodes {
			remote := map[int]bool{}
			for _, c := range consumers {
				cn := plan.NodeOf[c]
				if cn == prodNode {
					specs[prodNode].Routes[int(s.ID)] = append(specs[prodNode].Routes[int(s.ID)],
						Dest{Local: true, LocalOp: int(c)})
				} else if !remote[cn] {
					remote[cn] = true
					specs[prodNode].Routes[int(s.ID)] = append(specs[prodNode].Routes[int(s.ID)],
						Dest{Addr: addrs[cn]})
					if s.XferCost > 0 {
						specs[prodNode].XferCost[int(s.ID)] = s.XferCost
					}
				}
			}
			if len(consumers) == 0 && collector != "" {
				specs[prodNode].Routes[int(s.ID)] = append(specs[prodNode].Routes[int(s.ID)],
					Dest{Addr: collector})
			}
		}
	}
	// Inbound remote tuples also need local fan-out entries on the
	// receiving node; add local routes for consumers of streams whose
	// producer lives elsewhere (or is a system input).
	for _, s := range g.Streams() {
		if _, isKeyed := keyed[s.ID]; isKeyed {
			continue // keyed ingress delivers through the partition table
		}
		for _, c := range g.Consumers(s.ID) {
			cn := plan.NodeOf[c]
			if !s.Input() && plan.NodeOf[s.Producer] == cn {
				continue // already routed locally by the producer
			}
			specs[cn].Routes[int(s.ID)] = append(specs[cn].Routes[int(s.ID)],
				Dest{Local: true, LocalOp: int(c)})
			if s.XferCost > 0 {
				specs[cn].XferCost[int(s.ID)] = s.XferCost
			}
		}
	}
	return specs, nil
}

// producerNodesOf returns the node hosting a stream's producer operator;
// system input streams have no producer node (empty).
func producerNodesOf(g *query.Graph, plan *placement.Plan, sid query.StreamID) []int {
	s := g.Stream(sid)
	if s.Input() {
		return nil
	}
	return []int{plan.NodeOf[s.Producer]}
}

// InputNodes returns, per system input stream, the set of node indices that
// must receive injected tuples (the homes of that stream's consumers).
func InputNodes(g *query.Graph, plan *placement.Plan) map[query.StreamID][]int {
	out := map[query.StreamID][]int{}
	for _, in := range g.Inputs() {
		seen := map[int]bool{}
		for _, c := range g.Consumers(in) {
			n := plan.NodeOf[c]
			if !seen[n] {
				seen[n] = true
				out[in] = append(out[in], n)
			}
		}
	}
	return out
}
