// Package stepfunc implements integer-valued step functions of continuous
// time. They are the Cluster Availability Profiles (CAPs) of the paper
// (§3.1.4 and §A.3): the x-axis is absolute time in seconds, the y-axis is
// a node count.
//
// A StepFunc is immutable: every operation returns a new value, and
// operations are free to return one of their operands when the result is
// identical (e.g. Add with a zero operand). Functions are defined on
// [0, +Inf); the last segment extends to infinity. Values may be negative
// (differences of profiles are used as scratch values by the scheduler),
// and callers clamp where the domain requires it.
//
// The arithmetic core is a single-pass sorted merge: operands are stored
// normalized (strictly increasing times, no repeated values), so every
// binary operation emits its result already normalized, with exactly one
// slice allocation of exact capacity. Hot callers can go further with the
// Builder, which reuses caller-owned storage, and with SumAll, which folds
// any number of operands in one k-way pass.
package stepfunc

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Inf is the time/duration value representing "forever".
var Inf = math.Inf(1)

type point struct {
	t float64 // start time of the segment
	n int     // value on [t, nextT)
}

// StepFunc is a right-continuous step function of time.
// The zero value is the constant-zero function.
type StepFunc struct {
	// pts is sorted by strictly increasing t, with pts[0].t == 0 and no
	// two consecutive equal values. An empty slice means constant zero.
	// A one-point slice {0, 0} is forbidden (it must be the empty slice).
	pts []point
}

// zeroFunc is the shared constant-zero function. Sharing is safe because
// StepFunc values are immutable.
var zeroFunc = &StepFunc{}

// Zero returns the constant-zero step function.
func Zero() *StepFunc { return zeroFunc }

// Constant returns the step function that is n everywhere.
func Constant(n int) *StepFunc {
	if n == 0 {
		return zeroFunc
	}
	return &StepFunc{pts: []point{{0, n}}}
}

// Step describes one segment of a profile in the paper's list-of-pairs
// notation: the value n holds for the given Duration.
type Step struct {
	Duration float64
	N        int
}

// FromSteps builds a step function from the paper's (duration, node-count)
// list notation, starting at time 0. After the listed segments the function
// is 0, matching §A.3 ("0 nodes are available for t ∈ [7200, ∞)"). A final
// segment with Duration == Inf extends its value forever.
func FromSteps(steps ...Step) *StepFunc {
	pts := make([]point, 0, len(steps)+1)
	t := 0.0
	for _, s := range steps {
		if s.Duration < 0 {
			panic("stepfunc: negative duration")
		}
		if s.Duration == 0 {
			continue
		}
		if n := len(pts); n == 0 || pts[n-1].n != s.N {
			pts = append(pts, point{t, s.N})
		}
		if math.IsInf(s.Duration, 1) {
			return ownPts(pts)
		}
		t += s.Duration
	}
	if n := len(pts); n == 0 || pts[n-1].n != 0 {
		pts = append(pts, point{t, 0})
	}
	return ownPts(pts)
}

// ownPts wraps an already-normalized point sequence, taking ownership of
// the slice. It collapses the forbidden {0, 0} singleton to the shared zero.
func ownPts(pts []point) *StepFunc {
	if len(pts) == 0 || (len(pts) == 1 && pts[0].n == 0) {
		return zeroFunc
	}
	return &StepFunc{pts: pts}
}

// Rect returns a step function that is n on [t0, t0+dur) and 0 elsewhere.
// dur may be Inf.
func Rect(t0, dur float64, n int) *StepFunc {
	if t0 < 0 {
		panic("stepfunc: negative rect start")
	}
	if dur < 0 {
		panic("stepfunc: negative rect duration")
	}
	if dur == 0 || n == 0 {
		return zeroFunc
	}
	pts := make([]point, 0, 3)
	if t0 > 0 {
		pts = append(pts, point{0, 0})
	}
	pts = append(pts, point{t0, n})
	if !math.IsInf(dur, 1) {
		pts = append(pts, point{t0 + dur, 0})
	}
	return &StepFunc{pts: pts}
}

// Value returns the function value at time t. Values for t < 0 are reported
// as the value at 0 (the domain starts at 0).
func (f *StepFunc) Value(t float64) int {
	if len(f.pts) == 0 {
		return 0
	}
	// Binary search for the last point with pts[i].t <= t.
	i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].t > t })
	if i == 0 {
		return f.pts[0].n
	}
	return f.pts[i-1].n
}

// IsZero reports whether the function is identically zero.
func (f *StepFunc) IsZero() bool { return len(f.pts) == 0 }

// Len returns the number of stored breakpoints (0 for the zero function).
func (f *StepFunc) Len() int { return len(f.pts) }

// At returns the i-th breakpoint: the segment start time and the value held
// on [t, next t). Segments are indexed in increasing time order; callers use
// Len/At to walk a profile with a cursor instead of binary-searching Value
// at every probe.
func (f *StepFunc) At(i int) (t float64, n int) {
	p := f.pts[i]
	return p.t, p.n
}

// Clone returns a deep copy. Because StepFunc is treated as immutable this
// is rarely needed, but it keeps ownership obvious at package boundaries.
func (f *StepFunc) Clone() *StepFunc {
	if len(f.pts) == 0 {
		return zeroFunc
	}
	return &StepFunc{pts: append([]point(nil), f.pts...)}
}

// Equal reports whether f and g are the same function.
func (f *StepFunc) Equal(g *StepFunc) bool {
	if f == g {
		// Profiles are immutable and widely shared (views cache and reuse
		// them across scheduling rounds), so identity is a common fast path.
		return true
	}
	if len(f.pts) != len(g.pts) {
		return false
	}
	for i := range f.pts {
		if f.pts[i] != g.pts[i] {
			return false
		}
	}
	return true
}

// AppendBreakpoints appends the times at which the function changes value
// (always including 0) to dst and returns the extended slice. It allocates only when dst lacks capacity.
func (f *StepFunc) AppendBreakpoints(dst []float64) []float64 {
	if len(f.pts) == 0 {
		return append(dst, 0)
	}
	if f.pts[0].t != 0 {
		dst = append(dst, 0)
	}
	for _, p := range f.pts {
		dst = append(dst, p.t)
	}
	return dst
}

// opCode selects the pointwise operation of a merge. Using a code instead
// of a func value keeps the merge loop free of indirect calls.
type opCode uint8

const (
	opAdd opCode = iota
	opSub
	opMin
)

func applyOp(op opCode, a, b int) int {
	switch op {
	case opAdd:
		return a + b
	case opSub:
		return a - b
	default: // opMin
		if a < b {
			return a
		}
		return b
	}
}

// appendCombined merges f and g pointwise with op, appending the normalized
// result onto dst (which must be empty, i.e. buf[:0], and must not alias f
// or g). Both inputs are normalized, so the merged stream is emitted in
// increasing time order with equal-value runs collapsed on the fly — no
// sort, no post-pass.
func appendCombined(dst []point, f, g []point, op opCode) []point {
	i, j := 0, 0
	va, vb := 0, 0
	for i < len(f) || j < len(g) {
		var t float64
		switch {
		case i < len(f) && j < len(g):
			if f[i].t <= g[j].t {
				t = f[i].t
			} else {
				t = g[j].t
			}
		case i < len(f):
			t = f[i].t
		default:
			t = g[j].t
		}
		if i < len(f) && f[i].t == t {
			va = f[i].n
			i++
		}
		if j < len(g) && g[j].t == t {
			vb = g[j].n
			j++
		}
		v := applyOp(op, va, vb)
		if n := len(dst); n == 0 || dst[n-1].n != v {
			dst = append(dst, point{t, v})
		}
	}
	return dst
}

// newCombined materializes op(f, g) with a single exact-capacity allocation.
func newCombined(f, g *StepFunc, op opCode) *StepFunc {
	// Identity fast paths: sharing the operand is safe (immutability).
	if len(g.pts) == 0 && (op == opAdd || op == opSub) {
		return f
	}
	if len(f.pts) == 0 && op == opAdd {
		return g
	}
	pts := appendCombined(make([]point, 0, len(f.pts)+len(g.pts)), f.pts, g.pts, op)
	return ownPts(pts)
}

// Add returns f + g (the paper's view sum).
func (f *StepFunc) Add(g *StepFunc) *StepFunc { return newCombined(f, g, opAdd) }

// Sub returns f − g (the paper's view difference).
func (f *StepFunc) Sub(g *StepFunc) *StepFunc { return newCombined(f, g, opSub) }

// Min returns the pointwise minimum of f and g. It implements view clipping
// (§3.2: "the amount of resources that an application can pre-allocate can
// be limited, by clipping its non-preemptible view").
func (f *StepFunc) Min(g *StepFunc) *StepFunc { return newCombined(f, g, opMin) }

// SumAll returns the pointwise sum of all the functions in one k-way merge
// pass, instead of the N-1 intermediate functions a fold over Add would
// build. Nil entries count as zero.
func SumAll(fs []*StepFunc) *StepFunc {
	// Count the non-zero operands; 0 or 1 of them need no merge at all.
	nz := 0
	total := 0
	var last *StepFunc
	for _, f := range fs {
		if f != nil && len(f.pts) > 0 {
			nz++
			total += len(f.pts)
			last = f
		}
	}
	switch nz {
	case 0:
		return zeroFunc
	case 1:
		return last
	case 2:
		var a, b *StepFunc
		for _, f := range fs {
			if f != nil && len(f.pts) > 0 {
				if a == nil {
					a = f
				} else {
					b = f
				}
			}
		}
		return a.Add(b)
	}

	active := make([][]point, 0, nz)
	for _, f := range fs {
		if f != nil && len(f.pts) > 0 {
			active = append(active, f.pts)
		}
	}
	cur := make([]int, len(active)) // cursor per operand
	dst := make([]point, 0, total)
	sum := 0
	for {
		// Find the earliest unconsumed breakpoint across all operands.
		next := Inf
		for k, pts := range active {
			if cur[k] < len(pts) && pts[cur[k]].t < next {
				next = pts[cur[k]].t
			}
		}
		if math.IsInf(next, 1) {
			break
		}
		// Advance every operand sitting at that breakpoint, updating the
		// running sum incrementally.
		for k, pts := range active {
			if c := cur[k]; c < len(pts) && pts[c].t == next {
				prev := 0
				if c > 0 {
					prev = pts[c-1].n
				}
				sum += pts[c].n - prev
				cur[k]++
			}
		}
		if n := len(dst); n == 0 || dst[n-1].n != sum {
			dst = append(dst, point{next, sum})
		}
	}
	return ownPts(dst)
}

// ClampMin returns the function max(f, lo) pointwise with a scalar.
// If the function is already everywhere >= lo, f itself is returned.
func (f *StepFunc) ClampMin(lo int) *StepFunc {
	if len(f.pts) == 0 {
		if lo <= 0 {
			return f
		}
		return Constant(lo)
	}
	clamped := false
	for _, p := range f.pts {
		if p.n < lo {
			clamped = true
			break
		}
	}
	if !clamped {
		return f
	}
	// Clamping only merges segments, never splits them, so the result has
	// at most len(f.pts) points.
	dst := make([]point, 0, len(f.pts))
	for _, p := range f.pts {
		v := p.n
		if v < lo {
			v = lo
		}
		if n := len(dst); n == 0 || dst[n-1].n != v {
			dst = append(dst, point{p.t, v})
		}
	}
	return ownPts(dst)
}

// AddRect returns f plus a rectangle of height n on [t0, t0+dur).
// It is the building block for the paper's "generated views" (Algorithm 1,
// line 22). dur may be Inf. If the rectangle is empty, f itself is returned.
func (f *StepFunc) AddRect(t0, dur float64, n int) *StepFunc {
	if t0 < 0 {
		panic("stepfunc: negative rect start")
	}
	if dur < 0 {
		panic("stepfunc: negative rect duration")
	}
	if dur == 0 || n == 0 {
		return f
	}
	var buf [3]point
	rect := appendRectPts(buf[:0], t0, dur, n)
	pts := appendCombined(make([]point, 0, len(f.pts)+len(rect)), f.pts, rect, opAdd)
	return ownPts(pts)
}

// appendRectPts appends the normalized points of Rect(t0, dur, n) onto dst.
// dur and n must be non-zero, dur and t0 non-negative.
func appendRectPts(dst []point, t0, dur float64, n int) []point {
	if t0 > 0 {
		dst = append(dst, point{0, 0})
	}
	dst = append(dst, point{t0, n})
	if !math.IsInf(dur, 1) {
		dst = append(dst, point{t0 + dur, 0})
	}
	return dst
}

// Builder accumulates a step function left to right, reusing its internal
// storage across Reset calls. It is the allocation-free way to construct a
// profile whose breakpoints are produced in time order (e.g. the
// equi-partition schedule walking piece-wise constant intervals).
type Builder struct {
	pts []point
}

// Reset clears the builder for a new function, keeping capacity.
func (b *Builder) Reset() { b.pts = b.pts[:0] }

// Append records that the function holds value n from time t on. Calls must
// use non-decreasing t; equal-value runs and repeated times collapse
// automatically (the last value at a time wins).
func (b *Builder) Append(t float64, n int) {
	if len(b.pts) > 0 {
		if last := &b.pts[len(b.pts)-1]; last.t == t {
			last.n = n
			// Re-collapse against the predecessor if the overwrite made
			// them equal.
			if k := len(b.pts); k >= 2 && b.pts[k-2].n == n {
				b.pts = b.pts[:k-1]
			}
			return
		} else if last.t > t {
			panic("stepfunc: Builder.Append times must be non-decreasing")
		} else if last.n == n {
			return
		}
	}
	b.pts = append(b.pts, point{t, n})
}

// Fn materializes the accumulated function into a fresh immutable StepFunc.
// The builder remains usable (and reusable) afterwards.
func (b *Builder) Fn() *StepFunc {
	pts := b.pts
	if len(pts) == 0 {
		return zeroFunc
	}
	if pts[0].t == 0 {
		if len(pts) == 1 && pts[0].n == 0 {
			return zeroFunc
		}
		return &StepFunc{pts: append(make([]point, 0, len(pts)), pts...)}
	}
	// The function starts after 0: anchor it with a zero segment, merging
	// any leading zero-valued points into the anchor.
	out := make([]point, 0, len(pts)+1)
	out = append(out, point{0, 0})
	for _, p := range pts {
		if out[len(out)-1].n != p.n {
			out = append(out, p)
		}
	}
	if len(out) == 1 {
		return zeroFunc
	}
	return &StepFunc{pts: out}
}

// MinOn returns the minimum value of f on [t0, t1). t1 may be Inf.
// If t1 <= t0 the interval is empty and MinOn returns math.MaxInt.
func (f *StepFunc) MinOn(t0, t1 float64) int {
	if t1 <= t0 {
		return math.MaxInt
	}
	if len(f.pts) == 0 {
		return 0
	}
	min := f.Value(t0)
	i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].t > t0 })
	for ; i < len(f.pts) && f.pts[i].t < t1; i++ {
		if f.pts[i].n < min {
			min = f.pts[i].n
		}
	}
	return min
}

// FindHole returns the earliest time ts >= after such that
// MinOn(ts, ts+dur) >= n, i.e. the first moment an allocation of n nodes for
// dur seconds fits under the profile. It implements the paper's findHole
// (§A.3). dur may be Inf. If the profile never satisfies the request,
// FindHole returns +Inf.
func (f *StepFunc) FindHole(n int, dur, after float64) float64 {
	if after < 0 {
		after = 0
	}
	if dur <= 0 {
		return after
	}
	if n <= 0 {
		return after
	}
	if len(f.pts) == 0 {
		return Inf // constant zero can never serve n > 0
	}
	// Candidate start: "after", then each breakpoint where the value rises.
	ts := after
	for {
		// Check window [ts, ts+dur).
		end := ts + dur
		ok := true
		var failAt float64
		if f.Value(ts) < n {
			ok = false
			failAt = ts
		} else {
			i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].t > ts })
			for ; i < len(f.pts) && (math.IsInf(dur, 1) || f.pts[i].t < end); i++ {
				if f.pts[i].n < n {
					ok = false
					failAt = f.pts[i].t
					break
				}
			}
		}
		if ok {
			return ts
		}
		// Jump to the next breakpoint after failAt where the value becomes >= n.
		i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].t > failAt })
		next := Inf
		for ; i < len(f.pts); i++ {
			if f.pts[i].n >= n {
				next = f.pts[i].t
				break
			}
		}
		if math.IsInf(next, 1) {
			return Inf
		}
		ts = next
	}
}

// FirstBelow returns the earliest time t >= after at which the value drops
// strictly below level, or +Inf if the value stays >= level forever.
// The PSA resource-selection logic (§4: "select only the resources it can
// actually take advantage of") uses this to measure availability windows.
func (f *StepFunc) FirstBelow(level int, after float64) float64 {
	if after < 0 {
		after = 0
	}
	if f.Value(after) < level {
		return after
	}
	i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].t > after })
	for ; i < len(f.pts); i++ {
		if f.pts[i].n < level {
			return f.pts[i].t
		}
	}
	return Inf
}

// NonNegative reports whether the function is >= 0 everywhere. The scheduler
// uses it as an internal oversubscription check.
func (f *StepFunc) NonNegative() bool {
	for _, p := range f.pts {
		if p.n < 0 {
			return false
		}
	}
	return true
}

// TrimBefore returns a function that equals f on [t, ∞) and extends f(t)
// backwards to 0. The RMS trims views before pushing them: values in the
// past are reconstruction artifacts, not information. If nothing is
// trimmed, f itself is returned.
func (f *StepFunc) TrimBefore(t float64) *StepFunc {
	if t <= 0 || len(f.pts) == 0 {
		return f
	}
	i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].t > t })
	// f.pts[i-1] covers t (i >= 1 because pts[0].t == 0 <= t).
	if i == 1 {
		return f // nothing before t to discard
	}
	tail := f.pts[i:]
	n0 := f.pts[i-1].n
	if len(tail) == 0 && n0 == 0 {
		return zeroFunc
	}
	pts := make([]point, 0, 1+len(tail))
	pts = append(pts, point{0, n0})
	pts = append(pts, tail...) // tail[0].n != n0 by normalization of f
	return &StepFunc{pts: pts}
}

// NextBreakpoint returns the first breakpoint strictly after t, +Inf if
// there is none. TrimBefore(t) and TrimBefore(u) are the same function for
// every u in [t, NextBreakpoint(t)).
func (f *StepFunc) NextBreakpoint(t float64) float64 {
	i := sort.Search(len(f.pts), func(i int) bool { return f.pts[i].t > t })
	if i == len(f.pts) {
		return Inf
	}
	return f.pts[i].t
}

// Steps returns the function as the paper's list of (duration, node-count)
// pairs starting at time 0. The final step has Duration == Inf. It is the
// inverse of FromSteps and is used for wire serialization.
func (f *StepFunc) Steps() []Step {
	if len(f.pts) == 0 {
		return []Step{{Inf, 0}}
	}
	out := make([]Step, 0, len(f.pts)+1)
	if f.pts[0].t > 0 {
		out = append(out, Step{f.pts[0].t, 0})
	}
	for i, p := range f.pts {
		dur := Inf
		if i+1 < len(f.pts) {
			dur = f.pts[i+1].t - p.t
		}
		out = append(out, Step{dur, p.n})
	}
	return out
}

// String renders the function in the paper's list-of-pairs notation,
// e.g. "[(3600, 4) (3600, 3) (inf, 0)]".
func (f *StepFunc) String() string {
	if len(f.pts) == 0 {
		return "[(inf, 0)]"
	}
	var b strings.Builder
	b.WriteByte('[')
	for i, p := range f.pts {
		if i > 0 {
			b.WriteByte(' ')
		}
		var dur string
		if i+1 < len(f.pts) {
			dur = fmt.Sprintf("%g", f.pts[i+1].t-p.t)
		} else {
			dur = "inf"
		}
		fmt.Fprintf(&b, "(%s, %d)", dur, p.n)
	}
	b.WriteByte(']')
	return b.String()
}
