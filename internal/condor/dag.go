package condor

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
)

// This file implements the workload §5 motivates scenario one with:
// "large numbers of submitters will compete for a schedd in systems
// such as Chimera, which manage large trees of dependent tasks for a
// user, dispatching new jobs as old ones complete."

// DAGNode is one task in a dependency graph.
type DAGNode struct {
	ID   int
	Deps []int // IDs that must complete before this node may be submitted

	submitted bool
	done      bool
}

// DAG is a set of tasks with dependencies. It is not safe for
// concurrent use; a DAG belongs to one dispatcher process.
type DAG struct {
	Nodes []*DAGNode
	byID  map[int]*DAGNode
	left  int
}

// NewDAG builds a DAG from nodes, validating that dependencies exist
// and that IDs are unique.
func NewDAG(nodes []*DAGNode) (*DAG, error) {
	d := &DAG{Nodes: nodes, byID: make(map[int]*DAGNode, len(nodes)), left: len(nodes)}
	for _, n := range nodes {
		if _, dup := d.byID[n.ID]; dup {
			return nil, fmt.Errorf("condor: duplicate DAG node id %d", n.ID)
		}
		d.byID[n.ID] = n
	}
	for _, n := range nodes {
		for _, dep := range n.Deps {
			if _, ok := d.byID[dep]; !ok {
				return nil, fmt.Errorf("condor: node %d depends on unknown node %d", n.ID, dep)
			}
		}
	}
	return d, nil
}

// LayeredDAG generates a random layered DAG: layers of width nodes,
// each node depending on 1..fanin random nodes of the previous layer.
// This is the shape of Chimera derivation trees.
func LayeredDAG(rng *rand.Rand, layers, width, fanin int) *DAG {
	var nodes []*DAGNode
	id := 0
	prev := []int{}
	for l := 0; l < layers; l++ {
		var cur []int
		for w := 0; w < width; w++ {
			n := &DAGNode{ID: id}
			id++
			if len(prev) > 0 {
				k := 1 + rng.Intn(fanin)
				if k > len(prev) {
					k = len(prev)
				}
				seen := map[int]bool{}
				for len(n.Deps) < k {
					dep := prev[rng.Intn(len(prev))]
					if !seen[dep] {
						seen[dep] = true
						n.Deps = append(n.Deps, dep)
					}
				}
			}
			nodes = append(nodes, n)
			cur = append(cur, n.ID)
		}
		prev = cur
	}
	d, err := NewDAG(nodes)
	if err != nil {
		panic("condor: " + err.Error()) // generator bug, not user input
	}
	return d
}

// Remaining reports nodes not yet completed.
func (d *DAG) Remaining() int { return d.left }

// ready returns unsubmitted nodes whose dependencies have completed.
func (d *DAG) ready() []*DAGNode {
	var out []*DAGNode
	for _, n := range d.Nodes {
		if n.submitted || n.done {
			continue
		}
		ok := true
		for _, dep := range n.Deps {
			if !d.byID[dep].done {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, n)
		}
	}
	return out
}

// complete marks a node done.
func (d *DAG) complete(n *DAGNode) {
	if !n.done {
		n.done = true
		d.left--
	}
}

// DispatcherConfig shapes a DAG dispatcher.
type DispatcherConfig struct {
	// Submit is the per-job retry configuration (discipline, try
	// budget, carrier threshold).
	Submit SubmitterConfig
	// ExecTime is how long a job runs in the pool after submission
	// before its outputs exist and dependents become ready.
	ExecTime time.Duration
	// ExecJitter is the ± fraction of random variation on ExecTime.
	ExecJitter float64
	// PollInterval is how often the dispatcher rechecks for ready nodes
	// when none are pending.
	PollInterval time.Duration
}

// DefaultDispatcherConfig returns a workable Chimera-style setup.
func DefaultDispatcherConfig(d core.Discipline) DispatcherConfig {
	return DispatcherConfig{
		Submit:       DefaultSubmitterConfig(d),
		ExecTime:     30 * time.Second,
		ExecJitter:   0.3,
		PollInterval: time.Second,
	}
}

// Dispatcher drives one DAG to completion against a cluster.
type Dispatcher struct {
	// Submitted counts successful submissions; Abandoned counts jobs
	// whose try budget exhausted (they will be retried on the next
	// dispatch round, like a DAGMan resubmit).
	Submitted, Abandoned int64
	// Makespan is the virtual time from Run's start until the last node
	// completed (or until ctx canceled).
	Makespan time.Duration
}

// Run dispatches the DAG until every node completes or ctx is
// canceled. It returns nil on full completion.
func (disp *Dispatcher) Run(p core.Proc, ctx context.Context, cl *Cluster, dag *DAG, cfg DispatcherConfig) error {
	start := p.Elapsed()
	defer func() { disp.Makespan = p.Elapsed() - start }()
	client := &core.Client{
		Rt:         p,
		Discipline: cfg.Submit.Discipline,
		Limit:      core.For(cfg.Submit.TryLimit),
		Sense:      core.ThresholdSense("file-nr", func() int64 { return cl.FDs.Sense().Free() }, int64(cfg.Submit.Threshold)),
	}
	for dag.Remaining() > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		ready := dag.ready()
		if len(ready) == 0 {
			// Jobs are running in the pool; wait for completions.
			if err := p.Sleep(ctx, cfg.PollInterval); err != nil {
				return err
			}
			continue
		}
		for _, n := range ready {
			n := n
			if err := ctx.Err(); err != nil {
				return err
			}
			err := client.Do(ctx, func(ctx context.Context) error {
				return cl.Schedd.Submit(p, ctx)
			})
			if err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				disp.Abandoned++
				continue // leave unsubmitted; retried next round
			}
			disp.Submitted++
			n.submitted = true
			d := cfg.ExecTime
			d += time.Duration(float64(d) * cfg.ExecJitter * (2*p.Rand() - 1))
			p.Schedule(d, func() { dag.complete(n) })
		}
	}
	return nil
}
