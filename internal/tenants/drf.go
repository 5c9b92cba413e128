package tenants

import (
	"math"
	"sort"

	"coormv2/internal/core"
	"coormv2/internal/request"
	"coormv2/internal/view"
)

// DRFPolicy is a core.SchedulingPolicy ordering applications by dominant
// share across the tenant tree, gating admission on the queues' max
// quotas, and (as a core.VictimNominator) nominating cross-queue
// preemption victims. One instance drives exactly one scheduler; create
// one per federation shard, sharing the (immutable) Tree.
//
// Dominant share of a queue: max over clusters of usage divided by the
// queue's guarantee on that cluster (or the cluster capacity where no
// guarantee is set). Round order is a depth-first walk of the tree with
// children visited in ascending dominant-share order (ties by name), a
// queue's own applications in connection order before its children —
// so the most under-served tenant is offered resources first.
type DRFPolicy struct {
	tree *Tree

	// Per-round scratch, indexed by Queue.id. usage counts the nodes of
	// started unfinished allocations (NAlloc, all three request types);
	// pending counts the nodes of unstarted unheld requests (N). Both
	// are aggregated up the tree. share is the dominant share.
	usage   []Resources
	pending []Resources
	share   []float64
	appsAt  [][]*core.AppState
	resolve map[string]*Queue // tenant label → queue memo
	kids    [][]*Queue        // per-queue sorted-children scratch

	// lastRejected counts the admissions denied in the last round.
	lastRejected int
}

// NewDRF returns a DRF policy over the tree.
// The tree is sealed: it must not gain queues afterwards.
func NewDRF(tree *Tree) *DRFPolicy {
	tree.seal()
	n := len(tree.queues)
	p := &DRFPolicy{
		tree:    tree,
		usage:   make([]Resources, n),
		pending: make([]Resources, n),
		share:   make([]float64, n),
		appsAt:  make([][]*core.AppState, n),
		resolve: make(map[string]*Queue),
		kids:    make([][]*Queue, n),
	}
	for i := range p.usage {
		p.usage[i] = make(Resources)
		p.pending[i] = make(Resources)
	}
	return p
}

// Name implements core.SchedulingPolicy.
func (p *DRFPolicy) Name() string { return "drf" }

// Stable implements core.SchedulingPolicy: DRF reorders per round.
func (p *DRFPolicy) Stable() bool { return false }

// queueOf resolves an application's tenant label, memoized.
func (p *DRFPolicy) queueOf(a *core.AppState) *Queue {
	if q, ok := p.resolve[a.Tenant]; ok {
		return q
	}
	q := p.tree.Resolve(a.Tenant)
	p.resolve[a.Tenant] = q
	return q
}

// accountSet adds a request set's started usage and pending demand to the
// queue's leaf tallies.
//
// Usage is the larger of the grant (NAlloc) and the node IDs physically
// held: when the RMS drives the policy, an application whose preemptible
// grant was shrunk keeps squatting on its nodes until it releases them
// (or the grace kill fires), and those nodes are real occupancy — the
// starved queue cannot start on them, and revoking the squatter
// genuinely relieves the shortage. In pure-scheduler use NodeIDs is
// empty and usage is just the grant.
//
// A started preemptible request granted less than it asked for
// (NAlloc < N, the equi-partition shrink) still demands the difference —
// toView regrows its allocation whenever the view allows — so the
// shortfall counts as pending.
func accountSet(rs *request.Set, usage, pending Resources) {
	for _, r := range rs.All() {
		switch {
		case r.Finished:
		case r.Started():
			used := r.NAlloc
			if n := len(r.NodeIDs); n > used {
				used = n
			}
			usage[r.Cluster] += used
			if r.Type == request.Preempt && r.NAlloc < r.N {
				pending[r.Cluster] += r.N - r.NAlloc
			}
		case !r.Held:
			pending[r.Cluster] += r.N
		}
	}
}

// tally recomputes usage, pending demand, and dominant shares for every
// queue from the applications' request state, and buckets the
// applications by leaf queue (in the iteration order of apps, i.e.
// connection order when called from Order).
func (p *DRFPolicy) tally(info core.RoundInfo, apps []*core.AppState) {
	for i := range p.usage {
		clear(p.usage[i])
		clear(p.pending[i])
		p.appsAt[i] = p.appsAt[i][:0]
	}
	for _, a := range apps {
		q := p.queueOf(a)
		p.appsAt[q.id] = append(p.appsAt[q.id], a)
		accountSet(a.PA, p.usage[q.id], p.pending[q.id])
		accountSet(a.NP, p.usage[q.id], p.pending[q.id])
		accountSet(a.P, p.usage[q.id], p.pending[q.id])
	}
	// Aggregate leaf tallies up the tree. queues is in creation order, so
	// children always follow their parents — walk it backwards.
	qs := p.tree.queues
	for i := len(qs) - 1; i >= 1; i-- {
		q := qs[i]
		for cid, n := range p.usage[q.id] {
			p.usage[q.parent.id][cid] += n
		}
		for cid, n := range p.pending[q.id] {
			p.pending[q.parent.id][cid] += n
		}
	}
	for _, q := range qs {
		p.share[q.id] = p.dominantShare(info, q)
	}
}

// dominantShare computes max over clusters of usage/denominator, the
// denominator being the queue's guarantee on the cluster, or the cluster
// capacity where no guarantee is set.
func (p *DRFPolicy) dominantShare(info core.RoundInfo, q *Queue) float64 {
	dom := 0.0
	for cid, used := range p.usage[q.id] {
		if used == 0 {
			continue
		}
		denom := q.Guaranteed[cid]
		if denom <= 0 {
			denom = info.Clusters[cid]
		}
		var s float64
		if denom <= 0 {
			s = math.Inf(1) // usage against a zero-capacity cluster
		} else {
			s = float64(used) / float64(denom)
		}
		if s > dom {
			dom = s
		}
	}
	return dom
}

// Order implements core.SchedulingPolicy: the dominant-share tree walk.
func (p *DRFPolicy) Order(info core.RoundInfo, apps []*core.AppState, buf []*core.AppState) []*core.AppState {
	p.tally(info, apps)
	p.lastRejected = 0
	return p.emit(p.tree.root, buf)
}

// emit appends q's own applications (connection order), then its children
// ascending by dominant share (ties by name), depth first.
func (p *DRFPolicy) emit(q *Queue, buf []*core.AppState) []*core.AppState {
	buf = append(buf, p.appsAt[q.id]...)
	if len(q.children) == 0 {
		return buf
	}
	kids := append(p.kids[q.id][:0], q.children...)
	p.kids[q.id] = kids
	sort.SliceStable(kids, func(i, j int) bool {
		if p.share[kids[i].id] != p.share[kids[j].id] {
			return p.share[kids[i].id] < p.share[kids[j].id]
		}
		return kids[i].name < kids[j].name
	})
	for _, c := range kids {
		buf = p.emit(c, buf)
	}
	return buf
}

// Admit implements core.SchedulingPolicy: an application is admitted
// unless some queue on its leaf-to-root chain is at or above its max
// quota on a cluster where the application has pending demand. Usage
// counts started work only, so admission reacts to a queue crossing its
// cap with one round of lag — the round that starts the capped work.
func (p *DRFPolicy) Admit(_ core.RoundInfo, a *core.AppState) bool {
	leaf := p.queueOf(a)
	capped := false
	for q := leaf; q != nil && !capped; q = q.parent {
		if len(q.Max) == 0 {
			continue
		}
		for cid, max := range q.Max {
			if max > 0 && p.usage[q.id][cid] >= max && appPendingOn(a, cid) {
				capped = true
				break
			}
		}
	}
	if capped {
		p.lastRejected++
		return false
	}
	return true
}

// appPendingOn reports whether the application has pending (unstarted,
// unheld) demand on the cluster.
func appPendingOn(a *core.AppState, cid view.ClusterID) bool {
	for _, rs := range [3]*request.Set{a.PA, a.NP, a.P} {
		for _, r := range rs.All() {
			if !r.Started() && !r.Finished && !r.Held && r.Cluster == cid {
				return true
			}
		}
	}
	return false
}

// Victims implements core.VictimNominator with the YuniKorn DRF
// preemption rule: a queue is starved on a cluster when its usage is
// below its guarantee there AND it has pending demand there AND the
// cluster's free headroom cannot absorb that demand; victims are
// started preemptible allocations on that same cluster belonging to
// queues above their own guarantee, revoked largest-overshare-first, and
// only as long as (a) the shortage is not yet relieved and (b) the
// victim's queue stays at or above its guarantee after the revocation.
// When no candidate can relieve a shortage — no preemptible usage on the
// shortage cluster outside the starved subtree — nothing is nominated
// for it: preemption never fires when it cannot help.
func (p *DRFPolicy) Victims(info core.RoundInfo, apps []*core.AppState, buf []*request.Request) []*request.Request {
	p.tally(info, apps) // fresh tally: starts may have happened since Order
	var taken map[request.ID]bool
	for _, q := range p.tree.queues {
		if len(q.Guaranteed) == 0 {
			continue
		}
		for _, cid := range sortedClusters(q.Guaranteed) {
			guar := q.Guaranteed[cid]
			shortage := guar - p.usage[q.id][cid]
			if want := p.pending[q.id][cid]; want < shortage {
				shortage = want
			}
			// Free headroom relieves the shortage without revoking
			// anyone: the pending work starts on its own next round.
			// Preemption covers only the part no free node can.
			if free := info.Clusters[cid] - p.usage[p.tree.root.id][cid]; free > 0 {
				shortage -= free
			}
			if shortage <= 0 {
				continue
			}
			if taken == nil {
				taken = make(map[request.ID]bool)
			}
			buf = p.nominate(q, cid, shortage, taken, buf)
		}
	}
	return buf
}

// victimCand is one candidate revocation.
type victimCand struct {
	req   *request.Request
	queue *Queue
}

// nominate collects revocations relieving queue q's shortage of `short`
// nodes on cluster cid.
func (p *DRFPolicy) nominate(q *Queue, cid view.ClusterID, short int, taken map[request.ID]bool, buf []*request.Request) []*request.Request {
	var cands []victimCand
	for _, vq := range p.tree.queues {
		if !vq.IsLeaf() || inSubtree(vq, q) {
			continue
		}
		if p.usage[vq.id][cid] <= vq.Guaranteed[cid] {
			continue // at or below guarantee: not a donor
		}
		for _, a := range p.appsAt[vq.id] {
			for _, r := range a.P.All() {
				if r.Active() && r.Cluster == cid && (r.NAlloc > 0 || len(r.NodeIDs) > 0) && !taken[r.ID] {
					cands = append(cands, victimCand{req: r, queue: vq})
				}
			}
		}
	}
	if len(cands) == 0 {
		return buf // nothing can relieve this shortage
	}
	sort.SliceStable(cands, func(i, j int) bool {
		qi, qj := cands[i].queue, cands[j].queue
		if qi != qj {
			si, sj := p.share[qi.id], p.share[qj.id]
			if si != sj {
				return si > sj // most over-share donates first
			}
			return qi.path < qj.path
		}
		return cands[i].req.Seq > cands[j].req.Seq // newest admission first
	})
	for _, c := range cands {
		if short <= 0 {
			break
		}
		vq := c.queue
		surplus := p.usage[vq.id][cid] - vq.Guaranteed[cid]
		if surplus <= 0 {
			continue // donor dropped to its guarantee
		}
		freed := c.req.NAlloc
		if n := len(c.req.NodeIDs); n > freed {
			freed = n
		}
		buf = append(buf, c.req)
		taken[c.req.ID] = true
		p.usage[vq.id][cid] -= freed // keep the running tally honest
		short -= freed
	}
	return buf
}

// sortedClusters returns the resource map's cluster IDs in sorted order
// (deterministic nomination across runs).
func sortedClusters(r Resources) []view.ClusterID {
	out := make([]view.ClusterID, 0, len(r))
	for cid := range r {
		out = append(out, cid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
