package obs

import "sync"

// Event types recorded through the tree. Kept as short stable strings:
// they appear verbatim in /debug/obs JSON and experiment snapshots.
const (
	EvRound       = "round"        // one scheduling round (Value = clock seconds)
	EvStart       = "start"        // request admit→start (Value = wait seconds)
	EvReap        = "reap"         // request done→reap (Value = reap lag seconds)
	EvMigrate     = "migrate"      // live cluster migration (Value = pause seconds)
	EvCrash       = "crash"        // shard crash fault
	EvRestart     = "restart"      // shard restart (Value = outage seconds)
	EvNodeFail    = "node_fail"    // machine failures in a cluster (Value = node count)
	EvNodeRecover = "node_recover" // machine repairs in a cluster (Value = node count)
	EvGangCommit  = "gang_commit"  // cross-shard reservation committed (Value = hold→commit seconds)
	EvGangAbort   = "gang_abort"   // cross-shard reservation dropped (Value = hold→abort seconds)
	EvPreempt     = "preempt"      // quota preemption revoked an allocation (Value = nodes granted)
	EvConnDrop    = "conn_drop"    // transport connection died with a live session
	EvResume      = "resume"       // session resumed on a fresh connection (Value = outage seconds)
)

// Event is one structured trace entry: typed, timestamped on the
// sim/real clock, and attributable to a shard/app/cluster/request.
// Unused attribution fields stay at their zero values and are elided
// from JSON.
type Event struct {
	Seq     uint64  `json:"seq"`
	Time    float64 `json:"t"`
	Type    string  `json:"type"`
	Shard   string  `json:"shard,omitempty"`
	App     int     `json:"app,omitempty"`
	Cluster string  `json:"cluster,omitempty"`
	Request int     `json:"req,omitempty"`
	Value   float64 `json:"value,omitempty"`
}

// Ring is a bounded event buffer: appends are O(1) and alloc-free, and
// once full the oldest entry is overwritten. The total count keeps
// rising so consumers can detect loss.
type Ring struct {
	mu    sync.Mutex
	buf   []Event
	total uint64
}

// NewRing returns a ring holding the most recent capacity events
// (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{buf: make([]Event, capacity)}
}

// Add records one event, stamping its sequence number.
func (r *Ring) Add(e Event) {
	r.mu.Lock()
	e.Seq = r.total
	r.buf[r.total%uint64(len(r.buf))] = e
	r.total++
	r.mu.Unlock()
}

// Events returns the retained events oldest-first as a fresh slice.
func (r *Ring) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.total
	capN := uint64(len(r.buf))
	if n > capN {
		out := make([]Event, capN)
		start := n % capN
		copy(out, r.buf[start:])
		copy(out[capN-start:], r.buf[:start])
		return out
	}
	out := make([]Event, n)
	copy(out, r.buf[:n])
	return out
}

// Total returns how many events were ever recorded (retained or not).
func (r *Ring) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}
