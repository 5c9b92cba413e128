package transport

import (
	"errors"
	"time"

	"coormv2/internal/obs"
)

// heartbeatMisses is the number of silent heartbeat intervals tolerated
// before a connection is declared dead.
const heartbeatMisses = 3

// Defaults for Options fields left at zero.
const (
	DefaultBackoffBase     = 25 * time.Millisecond
	DefaultBackoffMax      = 1 * time.Second
	DefaultReconnectWindow = 15 * time.Second
	DefaultHandshakeWait   = 5 * time.Second
)

// ErrCallTimeout is returned by Request/Done when the per-call deadline
// (Options.CallTimeout) expires before the server's ack arrives. The call
// may still execute server-side; with idempotency tokens a later retry of
// the same operation is deduplicated.
var ErrCallTimeout = errors.New("transport: call deadline exceeded")

// Options configures a Client's wire-level resilience. The zero value
// reproduces the historical behaviour: no heartbeats, no reconnection, no
// per-call deadline, 4 MiB frames.
type Options struct {
	// MaxFrame caps the size of a received frame in bytes (0 =
	// DefaultMaxFrame). An oversized server frame is surfaced as an
	// *OversizedFrameError and treated as a connection failure — with
	// Reconnect enabled the session resumes on a fresh connection.
	MaxFrame int

	// CallTimeout bounds each Request/Done round trip (0 = wait forever).
	// A timed-out call returns ErrCallTimeout.
	CallTimeout time.Duration

	// HeartbeatInterval enables liveness probing: the client sends a ping
	// every interval and declares the connection dead when nothing —
	// pong, ack, or notification — arrives for three intervals.
	// Zero disables heartbeats (liveness then relies on TCP errors).
	HeartbeatInterval time.Duration

	// Reconnect enables automatic reconnection with session resume: on
	// connection death the client re-dials with exponential backoff +
	// jitter and presents its resume token; the server re-attaches the
	// session, replays current views/starts, and deduplicates re-sent
	// in-flight calls via their idempotency tokens. When the server
	// refuses the resume (session torn down after the grace window) the
	// client delivers OnKill and fails all pending calls.
	Reconnect bool

	// ReconnectWindow bounds the total time spent reconnecting after a
	// drop before giving up (0 = DefaultReconnectWindow). Align it with
	// the server's grace window: reconnecting longer than the server
	// retains the session only yields a resume rejection.
	ReconnectWindow time.Duration

	// BackoffBase/BackoffMax shape the reconnect backoff: the n-th
	// attempt waits min(BackoffBase·2ⁿ, BackoffMax) scaled by a jitter
	// factor in [0.5, 1.0). Zeroes use DefaultBackoffBase/Max.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Seed drives the backoff jitter. Zero seeds from the clock;
	// deterministic tests pass a fixed seed.
	Seed int64

	// Tenant optionally tags the session with a tenant queue path
	// ("org/team/q"), forwarded to the scheduler as rms.WithTenant. It is
	// replayed verbatim on every resume handshake.
	Tenant string

	// Obs, when set, records client-side resilience telemetry: the
	// "transport.reconnect_seconds" histogram (connection death →
	// resumed), EvResume events, and the client counter group.
	Obs *obs.Registry
}

func (o *Options) backoffBase() time.Duration {
	if o.BackoffBase <= 0 {
		return DefaultBackoffBase
	}
	return o.BackoffBase
}

func (o *Options) backoffMax() time.Duration {
	if o.BackoffMax <= 0 {
		return DefaultBackoffMax
	}
	return o.BackoffMax
}

func (o *Options) reconnectWindow() time.Duration {
	if o.ReconnectWindow <= 0 {
		return DefaultReconnectWindow
	}
	return o.ReconnectWindow
}
