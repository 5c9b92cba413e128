package rms

import (
	"errors"
	"fmt"

	"coormv2/internal/request"
)

// ErrStopped is returned by every operation on a stopped (crashed) server.
// Callers detect it with errors.Is.
var ErrStopped = errors.New("rms: server stopped")

// ErrUnknownCluster is wrapped by request() rejections for clusters the
// server does not manage. The federation routing layer detects it with
// errors.Is: during a live migration there is a window where the cluster is
// detached from its old owner but the new ownership is not committed yet,
// and exactly this error marks an operation that should wait the migration
// out and re-resolve the owner.
var ErrUnknownCluster = errors.New("rms: unknown cluster")

// ReasonNotFound is the RequestError.Reason for operations naming a request
// the server does not know. The federation layer matches it structurally to
// detect the mid-migration window where a request's new home is not
// committed yet (see internal/federation.Session.Done).
const ReasonNotFound = "not found"

// ReasonInUse is the RequestError.Reason for an admission (RequestID, HoldID,
// AttachCluster) under an ID that already names one of the session's requests.
const ReasonInUse = "already in use"

// RequestError is an error about a specific request. The offending request
// ID is carried as a field, not only baked into the message, so callers can
// match on it.
type RequestError struct {
	// ID is the request the error is about: the request itself, or — when
	// Related is set — the request named by the spec's RelatedTo.
	ID request.ID
	// Related marks errors about a request's RelatedTo reference.
	Related bool
	// Node is the offending node ID for release errors, -1 otherwise.
	Node int
	// Reason completes the message, e.g. "not found".
	Reason string
}

// errRequest builds a RequestError about a request itself.
func errRequest(id request.ID, reason string) *RequestError {
	return &RequestError{ID: id, Node: -1, Reason: reason}
}

// errRelated builds a RequestError about a spec's RelatedTo reference.
func errRelated(id request.ID, reason string) *RequestError {
	return &RequestError{ID: id, Related: true, Node: -1, Reason: reason}
}

// errNode builds a RequestError about a node released to the wrong request.
func errNode(id request.ID, node int) *RequestError {
	return &RequestError{ID: id, Node: node, Reason: "is not held by"}
}

// Error formats the message exactly as the historical plain-text errors did,
// so existing callers matching on substrings keep working.
func (e *RequestError) Error() string {
	switch {
	case e.Node >= 0:
		return fmt.Sprintf("rms: released node %d %s request %d", e.Node, e.Reason, e.ID)
	case e.Related:
		return fmt.Sprintf("rms: related request %d %s", e.ID, e.Reason)
	default:
		return fmt.Sprintf("rms: request %d %s", e.ID, e.Reason)
	}
}
