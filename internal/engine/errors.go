package engine

import (
	"errors"
	"fmt"

	"evilbloom/internal/cachedigest"
	"evilbloom/internal/mesh"
	"evilbloom/internal/service"
)

// Kind classifies a command failure independently of any wire format. The
// codecs own the rendering — HTTP maps kinds to status codes (400, 404,
// 405, 409, 429, 401, 500), RESP to reply classes (-ERR, -WRONGTYPE,
// -BUSY, -WRONGPASS) — but the decision of *what went wrong* is made here,
// once, so the two planes cannot drift into the almost-identical
// enforcement gap an adversary hunts for.
type Kind int

const (
	// KindInvalid is a malformed command: bad item, bad batch, bad spec.
	KindInvalid Kind = iota + 1
	// KindNotFound names a filter the registry does not hold.
	KindNotFound
	// KindCapability is an operation the filter's backend cannot perform
	// (remove on a plain bloom variant).
	KindCapability
	// KindConflict is a request refused by current state: name taken,
	// budget exhausted at creation, digest unexportable, and kin.
	KindConflict
	// KindBusy is an exhausted mutation budget (rate limit).
	KindBusy
	// KindUnauthorized is a failed authentication attempt.
	KindUnauthorized
	// KindInternal is everything else.
	KindInternal
)

// Error attaches a Kind to a cause. Error() returns the cause's message
// verbatim so codecs serve the same text they always did.
type Error struct {
	kind Kind
	err  error
}

func (e *Error) Error() string { return e.err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (e *Error) Unwrap() error { return e.err }

// wrap attaches kind to err.
func wrap(kind Kind, err error) *Error { return &Error{kind: kind, err: err} }

// errf builds a kinded error from a format string.
func errf(kind Kind, format string, args ...any) *Error {
	return &Error{kind: kind, err: fmt.Errorf(format, args...)}
}

// BusyError reports an exhausted mutation budget: the engine's single
// source for retry arithmetic, rendered as 429 + Retry-After by the HTTP
// codec and as a -BUSY reply by the RESP codec.
type BusyError struct {
	// Filter is the filter whose budget refused the charge.
	Filter string
	// N is the number of mutations the refused command requested.
	N int
	// RetrySecs is how long until the bucket covers the charge, ceiled,
	// floor one second.
	RetrySecs int64
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("mutation budget exhausted for filter %q (%d mutation(s) requested); retry after %ds",
		e.Filter, e.N, e.RetrySecs)
}

// ItemError reports one invalid item: empty, or over MaxItemLen.
type ItemError struct {
	// Index is the item's position within its batch; -1 for single-item
	// commands.
	Index int
	// Len is the offending length; 0 marks an empty item.
	Len int
}

func (e *ItemError) Error() string {
	if e.Len == 0 {
		return "empty item"
	}
	return fmt.Sprintf("item of %d bytes exceeds limit %d", e.Len, service.MaxItemLen)
}

// BatchTooLargeError reports a batch over MaxBatch items.
type BatchTooLargeError struct{ N int }

func (e *BatchTooLargeError) Error() string {
	return fmt.Sprintf("batch of %d items exceeds limit %d", e.N, service.MaxBatch)
}

// ErrEmptyBatch rejects a batch command with no items.
var ErrEmptyBatch = &Error{kind: KindInvalid, err: errors.New("empty batch")}

// ErrNotInFilter refuses a single remove of an item the filter believes
// absent — deleting it anyway would corrupt other items' counters, the
// §4.3 attack this server exists to demonstrate.
var ErrNotInFilter = &Error{kind: KindConflict, err: errors.New("item not in filter; removal refused")}

// Classify maps any error a command can return to its Kind. Engine-typed
// errors carry their kind; service, mesh and cachedigest sentinels are mapped
// here — the one table both codecs consult, replacing the per-plane
// errors.Is ladders that used to live in each handler.
func Classify(err error) Kind {
	if err == nil {
		return 0
	}
	var busy *BusyError
	if errors.As(err, &busy) {
		return KindBusy
	}
	var ke *Error
	if errors.As(err, &ke) {
		return ke.kind
	}
	var item *ItemError
	if errors.As(err, &item) {
		return KindInvalid
	}
	var batch *BatchTooLargeError
	if errors.As(err, &batch) {
		return KindInvalid
	}
	switch {
	case errors.Is(err, service.ErrFilterNotFound):
		return KindNotFound
	case errors.Is(err, cachedigest.ErrEnvelopeUnauthenticated):
		// Checked before ErrEnvelopeUnusable/Corrupt: a failed MAC is an
		// identity problem (401), not a transfer problem.
		return KindUnauthorized
	case errors.Is(err, service.ErrNotRemovable):
		return KindCapability
	case errors.Is(err, service.ErrFilterExists),
		errors.Is(err, service.ErrRegistryFull),
		errors.Is(err, service.ErrBudgetExhausted),
		errors.Is(err, service.ErrSnapshotMismatch),
		errors.Is(err, service.ErrNotDurable),
		errors.Is(err, service.ErrDigestUnexportable),
		errors.Is(err, mesh.ErrPushedDigestLimit),
		errors.Is(err, mesh.ErrNoPeers),
		errors.Is(err, cachedigest.ErrEnvelopeUnusable):
		return KindConflict
	case errors.Is(err, cachedigest.ErrEnvelopeCorrupt):
		return KindInvalid
	}
	return KindInternal
}
