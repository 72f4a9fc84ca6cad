// Package engine exercises the charge/refund interpreter: guarded charge
// failures are exempt, refunds (inline and deferred) clear the debt, and
// an unrefunded error return after a successful charge is the finding.
package engine

import "errors"

// limiter is the fixture twin of the engine's unexported limiter.
type limiter struct{}

func (l *limiter) allow(filter, principal string, n int) error { return nil }
func (l *limiter) refund(filter, principal string, n int)      {}

type Engine struct{ lim *limiter }

type Result struct{}

var errStore = errors.New("store failed")

func store() error { return errStore }

func (e *Engine) charge(p string, n int) error {
	return e.lim.allow("f", p, n)
}

// AddGood: the error return inside the charge's own guard needs no refund.
func (e *Engine) AddGood(p string) (Result, error) {
	if err := e.charge(p, 1); err != nil {
		return Result{}, err
	}
	return Result{}, nil
}

// PushGood: a failure after the charge refunds before returning.
func (e *Engine) PushGood(p string) (Result, error) {
	if err := e.charge(p, 1); err != nil {
		return Result{}, err
	}
	if err := store(); err != nil {
		e.lim.refund("f", p, 1)
		return Result{}, err
	}
	return Result{}, nil
}

// DeferGood: a deferred refund covers every later return.
func (e *Engine) DeferGood(p string) (Result, error) {
	if err := e.charge(p, 1); err != nil {
		return Result{}, err
	}
	defer e.lim.refund("f", p, 1)
	if err := store(); err != nil {
		return Result{}, err
	}
	return Result{}, nil
}

// RemoveBad: charged, then an error return with no refund.
func (e *Engine) RemoveBad(p string) (Result, error) {
	if err := e.charge(p, 1); err != nil {
		return Result{}, err
	}
	if err := store(); err != nil {
		return Result{}, err // want "no refund on this path"
	}
	return Result{}, nil
}

// DirectBad: same leak through the separate-assign charge shape, calling
// the limiter without the charge helper.
func (e *Engine) DirectBad(p string) (Result, error) {
	err := e.lim.allow("f", p, 1)
	if err != nil {
		return Result{}, err
	}
	if err := store(); err != nil {
		return Result{}, err // want "no refund on this path"
	}
	return Result{}, nil
}
