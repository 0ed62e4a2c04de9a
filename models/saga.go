package models

import (
	"context"
	"errors"
	"fmt"
	"sync"

	asset "repro"
)

// SagaStep is one component transaction of a saga with its compensating
// transaction. Compensation may be nil for the final step (the paper notes
// tn needs no compensation) or for steps with no external effects.
type SagaStep struct {
	Name       string
	Action     asset.TxnFunc
	Compensate asset.TxnFunc
}

// SagaOptions configures retry behaviour for a saga's components.
type SagaOptions struct {
	// StepAttempts is the attempt budget per component transaction:
	// transient failures (deadlock victims, overload sheds, anything
	// tagged asset.ErrRetryable) are retried with the Run engine's backoff
	// that many times before the saga gives up on the step and
	// compensates. <=0 means 3.
	StepAttempts int
}

// Saga is the §3.1.6 model: a sequence of component transactions that
// commit independently (releasing their locks early), with compensating
// transactions run in reverse order if a later component aborts. Build one
// with NewSaga, add steps with Step, and execute with Run.
type Saga struct {
	m     *asset.Manager
	steps []SagaStep
	// stepBuf backs steps for a saga's first four steps, which is all most
	// sagas have: building one costs the Saga and nothing per step.
	stepBuf [4]SagaStep
	// Options shapes step retry; the zero value gives each component 3
	// attempts.
	Options SagaOptions
}

// NewSaga returns an empty saga over m.
func NewSaga(m *asset.Manager) *Saga {
	s := &Saga{m: m}
	s.steps = s.stepBuf[:0]
	return s
}

// WithOptions sets the saga's retry options and returns it for chaining.
func (s *Saga) WithOptions(o SagaOptions) *Saga {
	s.Options = o
	return s
}

// runStep executes one component transaction under the saga's retry
// budget: transient failures restart the step (fresh transaction, capped
// exponential backoff) via the Run engine.
func (s *Saga) runStep(fn asset.TxnFunc) error {
	attempts := s.Options.StepAttempts
	if attempts <= 0 {
		attempts = 3
	}
	return asset.Run(context.Background(), s.m, asset.RunOptions{MaxAttempts: attempts}, fn)
}

// stepAborted reports whether a step's error means the component
// definitively aborted (compensate and stop) as opposed to an
// infrastructure error that should surface unchanged. Exhausting the
// retry budget on transient failures counts as an abort: the saga's
// contract is that a failed component triggers compensation.
func stepAborted(err error) bool {
	return errors.Is(err, asset.ErrAborted) ||
		errors.Is(err, asset.ErrDeadlock) ||
		asset.Retryable(err)
}

// compensateOptions is the compensation policy: a compensating
// transaction "must be retried until it finally commits" (§3.1.6), so
// every error is retried, under a budget that stops a compensation that
// can never commit from spinning for good.
var compensateOptions = asset.RunOptions{
	MaxAttempts: 100,
	Retryable:   func(error) bool { return true },
}

// Compensate runs fn, the compensating transaction of the step called
// name, retrying every failure with the Run engine's backoff until it
// commits. Sagas and workflows compensate through it. It returns an error
// only when the attempt budget ran out.
func Compensate(m *asset.Manager, name string, fn asset.TxnFunc) error {
	if err := asset.Run(context.Background(), m, compensateOptions, fn); err != nil {
		return fmt.Errorf("models: compensation %q did not commit: %w", name, err)
	}
	return nil
}

// compensate runs, in reverse order, the compensations of the steps below
// n that committed — every one of them when errs is nil, else those whose
// error in errs is nil — and records each in res.
func (s *Saga) compensate(res *SagaResult, n int, errs []error) error {
	for i := n - 1; i >= 0; i-- {
		step := &s.steps[i]
		if step.Compensate == nil || (errs != nil && errs[i] != nil) {
			continue
		}
		if err := Compensate(s.m, step.Name, step.Compensate); err != nil {
			return err
		}
		res.Compensated = append(res.Compensated, step.Name)
	}
	return nil
}

// Step appends a component transaction with its compensation and returns
// the saga for chaining.
func (s *Saga) Step(name string, action, compensate asset.TxnFunc) *Saga {
	s.steps = append(s.steps, SagaStep{Name: name, Action: action, Compensate: compensate})
	return s
}

// SagaResult reports how a saga execution unfolded.
type SagaResult struct {
	// Committed lists the component steps that committed, in order.
	Committed []string
	// FailedStep is the step whose component transaction aborted ("" if
	// the saga committed).
	FailedStep string
	// Compensated lists the compensating transactions that ran, in the
	// order they committed (reverse order of the components).
	Compensated []string
}

// Err returns nil if the saga committed and an error describing the
// abort-and-compensate outcome otherwise.
func (r *SagaResult) Err() error {
	if r.FailedStep == "" {
		return nil
	}
	return fmt.Errorf("models: saga aborted at step %q (%d steps compensated): %w",
		r.FailedStep, len(r.Compensated), asset.ErrAborted)
}

// RunParallel executes every component transaction concurrently — the
// generalization Garcia-Molina & Salem sketch for sagas whose components
// are independent. If any component aborts, the components that committed
// are compensated (reverse declaration order, each retried until commit).
// Components must be mutually independent; components touching the same
// objects serialize on their locks like any transactions.
func (s *Saga) RunParallel() (*SagaResult, error) {
	res := &SagaResult{Committed: make([]string, 0, len(s.steps))}
	errs := make([]error, len(s.steps))
	var wg sync.WaitGroup
	for i := range s.steps {
		wg.Add(1)
		//asset:goroutine joined-by=waitgroup
		go func(i int) {
			defer wg.Done()
			errs[i] = s.runStep(s.steps[i].Action)
		}(i)
	}
	wg.Wait()
	failed := -1
	for i, err := range errs {
		if err == nil {
			res.Committed = append(res.Committed, s.steps[i].Name)
			continue
		}
		if !stepAborted(err) {
			return res, err
		}
		if failed < 0 {
			failed = i
			res.FailedStep = s.steps[i].Name
		}
	}
	if failed < 0 {
		return res, nil
	}
	return res, s.compensate(res, len(s.steps), errs)
}

// Run executes the saga per the paper's translation: each component runs
// as an ordinary atomic transaction (initiate; begin; commit) and commits
// before the next starts; if component k fails, compensations ct_{k-1}..ct_1
// run in reverse order, each retried until it commits. The returned
// result's Err method distinguishes commit from compensated abort.
func (s *Saga) Run() (*SagaResult, error) {
	res := &SagaResult{Committed: make([]string, 0, len(s.steps))}
	failed := -1
	for i, step := range s.steps {
		if err := s.runStep(step.Action); err != nil {
			if !stepAborted(err) {
				return res, err // infrastructure error, not a component abort
			}
			res.FailedStep = step.Name
			failed = i
			break
		}
		res.Committed = append(res.Committed, step.Name)
	}
	if failed < 0 {
		return res, nil
	}
	// Compensate committed components in reverse order of commitment.
	return res, s.compensate(res, failed, nil)
}
