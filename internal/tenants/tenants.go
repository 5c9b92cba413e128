// Package tenants puts a multi-tenant queue hierarchy in front of the
// CooRMv2 scheduler. A Tree of queues (org → team → queue) carries
// guaranteed and maximum quotas per cluster; the DRFPolicy orders
// applications by dominant share across the tree, gates admission on the
// max quotas, and nominates cross-queue preemption victims — but only
// when revoking them actually relieves a demanding queue's shortage
// (YuniKorn drf/preemption semantics). The policies plug into the core
// scheduler through core.SchedulingPolicy / core.VictimNominator without
// touching the round algorithms.
//
// Concurrency: a Tree is immutable once handed to a policy, so one Tree
// may be shared by every shard of a federation. All per-round mutable
// state lives in the DRFPolicy, which belongs to exactly one scheduler.
package tenants

import (
	"fmt"
	"sort"
	"strings"

	"coormv2/internal/view"
)

// Resources maps cluster IDs to node counts (a quota or a usage figure).
type Resources map[view.ClusterID]int

// clone returns a copy of r (nil stays nil).
func (r Resources) clone() Resources {
	if r == nil {
		return nil
	}
	out := make(Resources, len(r))
	for cid, n := range r {
		out[cid] = n
	}
	return out
}

// DefaultQueue is the implicit leaf every untagged or unknown tenant
// label resolves to. It has no guarantees, so its preemptible work is
// the first candidate for revocation — untagged sessions scavenge.
const DefaultQueue = "default"

// Queue is one node of the tenant tree. Queues are identified by their
// slash-separated path from the root ("org/team/q"); the root has path "".
type Queue struct {
	name     string
	path     string
	id       int // index into the Tree's queue list (and policy scratch)
	parent   *Queue
	children []*Queue // sorted by name

	// Guaranteed is the capacity the queue is entitled to per cluster: a
	// queue using less than its guarantee while demanding more is
	// starved, and preemption may revoke other queues' preemptible work
	// to relieve it. Max caps the queue's usage per cluster: at or above
	// it, no new work of the queue is admitted. Either may be nil.
	Guaranteed Resources
	Max        Resources
}

// Name returns the queue's own name (last path element).
func (q *Queue) Name() string { return q.name }

// IsLeaf reports whether the queue has no children.
func (q *Queue) IsLeaf() bool { return len(q.children) == 0 }

// Tree is the tenant hierarchy. Build it with Add before handing it to a
// policy; it must not be mutated afterwards (policies and shards share
// it without locks).
type Tree struct {
	root   *Queue
	byPath map[string]*Queue
	queues []*Queue // all queues in creation order, indexed by Queue.id
	sealed bool
}

// NewTree returns a tree holding the root queue and the implicit
// DefaultQueue leaf for untagged tenants.
func NewTree() *Tree {
	root := &Queue{}
	t := &Tree{root: root, byPath: map[string]*Queue{"": root}, queues: []*Queue{root}}
	t.MustAdd(DefaultQueue, nil, nil)
	return t
}

// Add creates the queue at path (intermediate queues are created with no
// quotas) and sets its guaranteed and max resources. Adding a path twice
// or adding to a sealed tree is an error.
func (t *Tree) Add(path string, guaranteed, max Resources) (*Queue, error) {
	if t.sealed {
		return nil, fmt.Errorf("tenants: tree is sealed (a policy already uses it)")
	}
	if path == "" {
		return nil, fmt.Errorf("tenants: empty queue path")
	}
	if _, dup := t.byPath[path]; dup {
		return nil, fmt.Errorf("tenants: duplicate queue %q", path)
	}
	parts := strings.Split(path, "/")
	cur := t.root
	for i, name := range parts {
		if name == "" {
			return nil, fmt.Errorf("tenants: empty element in queue path %q", path)
		}
		p := strings.Join(parts[:i+1], "/")
		next, ok := t.byPath[p]
		if !ok {
			next = &Queue{name: name, path: p, id: len(t.queues), parent: cur}
			cur.children = append(cur.children, next)
			sort.Slice(cur.children, func(a, b int) bool {
				return cur.children[a].name < cur.children[b].name
			})
			t.byPath[p] = next
			t.queues = append(t.queues, next)
		}
		cur = next
	}
	cur.Guaranteed = guaranteed.clone()
	cur.Max = max.clone()
	return cur, nil
}

// MustAdd is Add, panicking on error (setup-time configuration).
func (t *Tree) MustAdd(path string, guaranteed, max Resources) *Queue {
	q, err := t.Add(path, guaranteed, max)
	if err != nil {
		panic(err)
	}
	return q
}

// Queue returns the queue at path, or nil.
func (t *Tree) Queue(path string) *Queue { return t.byPath[path] }

// Resolve maps a tenant label to its queue: an exact path match, or the
// DefaultQueue for unknown and empty labels.
func (t *Tree) Resolve(tenant string) *Queue {
	if q, ok := t.byPath[tenant]; ok && q != t.root {
		return q
	}
	return t.byPath[DefaultQueue]
}

// seal freezes the tree against further Add calls.
func (t *Tree) seal() { t.sealed = true }

// inSubtree reports whether q is anc or one of its descendants.
func inSubtree(q, anc *Queue) bool {
	for ; q != nil; q = q.parent {
		if q == anc {
			return true
		}
	}
	return false
}
