// Package view implements the paper's views (§3.1.4, §A.3): a Cluster
// Availability Profile (a step function of time) per cluster ID. The RMS
// pushes two views to every application — a non-preemptive view and a
// preemptive view — and the scheduler manipulates views as scratch values
// while computing a schedule. How a view stores its profiles is this
// package's business: every other package goes through View's methods.
//
// The profiles stored in a view are immutable everywhere (see stepfunc);
// only the view itself is ever mutated. The value-returning operations (Add,
// Sub, Clip, TrimBefore, ...) treat views as immutable and return a new View —
// possibly sharing profiles with their operands. The Mut* operations and the
// setters are the mutable-accumulator mode used on scheduler scratch: they
// update the receiver in place, so the caller must own it (profiles may
// still be shared freely).
package view

import (
	"fmt"
	"iter"
	"maps"
	"reflect"
	"sort"
	"strings"

	"coormv2/internal/stepfunc"
)

// ClusterID identifies a cluster. The paper's evaluation uses one large
// homogeneous cluster, but the interface is multi-cluster throughout
// (requests carry a cluster ID, §3.1.1).
type ClusterID string

// View holds an availability profile per cluster ID. A cluster the view does
// not name is the constant-zero profile; a view segment (see
// rms.AppHandler.OnViews) may also name a cluster with a zero profile.
type View map[ClusterID]*stepfunc.StepFunc

// New returns an empty view (all clusters zero).
func New() View { return View{} }

// NewSized returns an empty view with room for n clusters.
func NewSized(n int) View { return make(View, n) }

// Constant returns a view in which every listed cluster has n nodes forever.
// With n = 0 it is the segment naming every listed cluster empty.
func Constant(n int, cids ...ClusterID) View {
	v := New()
	for _, cid := range cids {
		v.Put(cid, stepfunc.Constant(n))
	}
	return v
}

// Lookup returns the profile v stores for cid (nil if none) and whether v
// names cid. Unlike Get it tells a named zero profile from a cluster v does
// not name.
func (v View) Lookup(cid ClusterID) (*stepfunc.StepFunc, bool) {
	f, ok := v[cid]
	return f, ok
}

// Set stores f for cid, or drops cid when f is zero, so a view built with
// Set names only its nonzero clusters.
func (v View) Set(cid ClusterID, f *stepfunc.StepFunc) {
	if f.IsZero() {
		delete(v, cid)
	} else {
		v[cid] = f
	}
}

// Put stores f for cid as it is, a zero f included: how a segment names a
// cluster that went empty.
func (v View) Put(cid ClusterID, f *stepfunc.StepFunc) { v[cid] = f }

// Len returns the number of clusters v names.
func (v View) Len() int { return len(v) }

// Clear drops every cluster from v, keeping its storage for reuse.
func (v View) Clear() { clear(v) }

// CopyInto stores each of v's profiles into dst, as Put does.
func (v View) CopyInto(dst View) { maps.Copy(dst, v) }

// All yields every cluster v names with its stored profile, in no particular
// order.
func (v View) All() iter.Seq2[ClusterID, *stepfunc.StepFunc] { return maps.All(v) }

// Key returns v's identity: equal for two views exactly when they are one
// value (Same), 0 for a nil view. It stands for v's contents only while
// nobody mutates v, as for the views the scheduler hands out.
func (v View) Key() uintptr { return reflect.ValueOf(v).Pointer() }

// Get returns the profile for cid (never nil; zero profile if absent or
// explicitly nil).
func (v View) Get(cid ClusterID) *stepfunc.StepFunc {
	if f, ok := v[cid]; ok && f != nil {
		return f
	}
	return stepfunc.Zero()
}

// Clusters returns the cluster IDs present in the view, sorted.
func (v View) Clusters() []ClusterID {
	out := make([]ClusterID, 0, len(v))
	for cid := range v {
		out = append(out, cid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Clone returns a copy of the view (a fresh map; the immutable profiles are
// shared). maps.Clone copies the table structure directly instead of
// re-inserting every key — the scheduler's fold cloning sits on a hot path.
func (v View) Clone() View {
	if v == nil {
		return New()
	}
	return maps.Clone(v)
}

// combine merges two views cluster-wise with op: first every cluster of a,
// then the clusters only b has. No intermediate key-set is materialized.
// The map is sized for the larger operand: operands usually name the same
// clusters, and a hint past 8 makes an 8-cluster result a large map (504 B
// in 4 allocations with go1.24's maps, against 256 B in 2).
func combine(a, b View, op func(x, y *stepfunc.StepFunc) *stepfunc.StepFunc) View {
	out := make(View, max(len(a), len(b)))
	for cid := range a {
		out.Set(cid, op(a.Get(cid), b.Get(cid)))
	}
	for cid := range b {
		if _, ok := a[cid]; !ok {
			out.Set(cid, op(a.Get(cid), b.Get(cid)))
		}
	}
	return out
}

// Add returns the cluster-wise sum a + b (the paper's "+" on views).
func (v View) Add(o View) View {
	return combine(v, o, func(x, y *stepfunc.StepFunc) *stepfunc.StepFunc { return x.Add(y) })
}

// Sub returns the cluster-wise difference a − b (the paper's "−" on views).
func (v View) Sub(o View) View {
	return combine(v, o, func(x, y *stepfunc.StepFunc) *stepfunc.StepFunc { return x.Sub(y) })
}

// Clip returns the cluster-wise pointwise minimum with o. It implements the
// administrator policy suggested in §3.2: limiting how much an application
// may pre-allocate by clipping its non-preemptible view.
func (v View) Clip(o View) View {
	return combine(v, o, func(x, y *stepfunc.StepFunc) *stepfunc.StepFunc { return x.Min(y) })
}

// Sum returns the cluster-wise sum of any number of views in a single k-way
// pass per cluster (see stepfunc.SumAll), instead of the len(vs)-1
// intermediate views a fold over Add would build. Nil views count as empty.
func Sum(vs ...View) View {
	out := New()
	var fs []*stepfunc.StepFunc
	for i, v := range vs {
		for cid := range v {
			if _, done := out[cid]; done {
				continue
			}
			fs = fs[:0]
			// Views before vs[i] cannot contain cid, or it would already
			// be marked done.
			for _, w := range vs[i:] {
				if f, ok := w[cid]; ok && f != nil {
					fs = append(fs, f)
				}
			}
			out[cid] = stepfunc.SumAll(fs)
		}
	}
	for cid, f := range out {
		if f.IsZero() {
			delete(out, cid)
		}
	}
	return out
}

// MutAdd adds o into v cluster-wise, mutating v's map in place. v may end
// up sharing profiles with o.
func (v View) MutAdd(o View) {
	for cid, g := range o {
		v.Set(cid, v.Get(cid).Add(g))
	}
}

// MutSub subtracts o from v cluster-wise, mutating v's map in place.
func (v View) MutSub(o View) {
	for cid, g := range o {
		v.Set(cid, v.Get(cid).Sub(g))
	}
}

// MutClampMin clamps every profile of v below at lo, in place.
func (v View) MutClampMin(lo int) {
	for cid, f := range v {
		// A named zero goes even when ClampMin returns it unchanged.
		if g := f.ClampMin(lo); g != f || g.IsZero() {
			v.Set(cid, g)
		}
	}
}

// MutAddRect adds a rectangle of n nodes on [t0, t0+dur) to cluster cid,
// mutating v's map in place. Unlike the immutable AddRect it does not clone
// the map, which makes accumulating many rectangles linear instead of
// quadratic. n may be negative (used by the scheduler to retire
// allocations from an availability accumulator).
func (v View) MutAddRect(cid ClusterID, t0, dur float64, n int) {
	v.Set(cid, v.Get(cid).AddRect(t0, dur, n))
}

// ClampMin returns the view with every profile clamped below at lo
// (typically 0, to present applications only non-negative availability).
// If no profile changes, v itself is returned.
func (v View) ClampMin(lo int) View {
	return v.transformed(func(f *stepfunc.StepFunc) *stepfunc.StepFunc { return f.ClampMin(lo) })
}

// TrimBefore returns the view with every profile's pre-t history replaced
// by its value at t (see stepfunc.TrimBefore). If no profile changes, v
// itself is returned.
func (v View) TrimBefore(t float64) View {
	return v.transformed(func(f *stepfunc.StepFunc) *stepfunc.StepFunc { return f.TrimBefore(t) })
}

// transformed applies op to every profile, cloning the map lazily on the
// first change; if op leaves every profile identical, v itself is returned
// and nothing is allocated.
func (v View) transformed(op func(*stepfunc.StepFunc) *stepfunc.StepFunc) View {
	var out View // nil until a profile changes
	for cid, f := range v {
		g := op(f)
		if g == f {
			continue
		}
		if out == nil {
			out = v.Clone()
		}
		out.Set(cid, g)
	}
	if out == nil {
		return v
	}
	return out
}

// AddRect returns the view with a rectangle of n nodes on [t0, t0+dur)
// added on cluster cid. It is Algorithm 1's
// "Vo ← Vo + {r.cid : [(r.scheduledAt, 0), (r.duration, r.nalloc)]}".
func (v View) AddRect(cid ClusterID, t0, dur float64, n int) View {
	out := v.Clone()
	out.MutAddRect(cid, t0, dur, n)
	return out
}

// Alloc returns the node-count that can be allocated on cluster cid during
// [t0, t0+dur) without exceeding the view, capped at want. It implements the
// paper's alloc() (§A.3), used to compute nalloc for preemptible requests.
// Negative availability counts as zero.
func (v View) Alloc(cid ClusterID, want int, t0, dur float64) int {
	if want <= 0 {
		return 0
	}
	min := v.Get(cid).MinOn(t0, t0+dur)
	if min > want {
		return want
	}
	if min < 0 {
		return 0
	}
	return min
}

// FindHole returns the first time >= after at which n nodes are available on
// cluster cid for dur seconds (the paper's findHole, §A.3). It returns +Inf
// if the request can never be served from this view.
func (v View) FindHole(cid ClusterID, n int, dur, after float64) float64 {
	return v.Get(cid).FindHole(n, dur, after)
}

// Equal reports whether two views are identical. The RMS uses it to push
// view updates only when something actually changed.
func (v View) Equal(o View) bool {
	if Same(v, o) {
		// The scheduler keeps a view's map across rounds while its value
		// holds, so identity is a common fast path.
		return true
	}
	for cid := range v {
		if !v.Get(cid).Equal(o.Get(cid)) {
			return false
		}
	}
	for cid := range o {
		if _, ok := v[cid]; !ok && !o.Get(cid).IsZero() {
			return false
		}
	}
	return true
}

// Same reports whether a and b are one view (or both nil). For views nobody
// mutates any more, such as the ones the scheduler hands out, one view is
// one value.
func Same(a, b View) bool { return a.Key() == b.Key() }

// NonNegative reports whether every profile in the view is >= 0 everywhere.
// The scheduler asserts this on the availability views it exposes.
func (v View) NonNegative() bool {
	for _, f := range v {
		if !f.NonNegative() {
			return false
		}
	}
	return true
}

// String renders the view in the paper's notation, e.g.
// "{a: [(3600, 4) (3600, 3) (inf, 0)], b: [(inf, 6)]}".
func (v View) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, cid := range v.Clusters() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s: %s", cid, v[cid])
	}
	b.WriteByte('}')
	return b.String()
}
