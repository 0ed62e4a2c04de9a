// Package workflow implements §3.2.3 of the ASSET paper: long-lived
// activities composed of transaction-like steps with inter-related
// dependencies, compensations, preference-ordered alternatives, optional
// steps, and parallel races ("whichever completes first wins", as in the
// appendix's car-rental reservation). It is the higher-level language the
// paper says could be designed over the primitives; a Workflow compiles
// down to the same initiate/begin/commit/abort/wait sequences the appendix
// program spells out by hand.
package workflow

import (
	"errors"
	"fmt"

	asset "repro"
	"repro/models"
)

// Task is one transactional unit of work with an optional compensating
// transaction that semantically undoes it.
type Task struct {
	Name       string
	Action     asset.TxnFunc
	Compensate asset.TxnFunc
}

// ErrFailed reports that a required step failed and the workflow was
// compensated.
var ErrFailed = errors.New("workflow: activity failed")

// stepKind discriminates the step constructors.
type stepKind int

const (
	kindTask stepKind = iota
	kindAlternatives
	kindRace
	kindParallelAll
)

type step struct {
	name     string
	kind     stepKind
	tasks    []Task
	optional bool
}

// Workflow is an ordered list of steps. Build with New and the fluent
// methods, then Run it.
type Workflow struct {
	name  string
	steps []step
	// single holds the tasks of the single-task steps, each step's tasks a
	// one-element window on it. stepBuf and singleBuf back steps and single
	// for a workflow's first four of each, which is all most activities have:
	// building one costs the Workflow and nothing per step.
	single    []Task
	stepBuf   [4]step
	singleBuf [4]Task
}

// New returns an empty workflow with the given activity name.
func New(name string) *Workflow {
	w := &Workflow{name: name}
	w.steps, w.single = w.stepBuf[:0], w.singleBuf[:0]
	return w
}

// Step appends a required single-task step.
func (w *Workflow) Step(t Task) *Workflow {
	w.single = append(w.single, t)
	n := len(w.single)
	w.steps = append(w.steps, step{name: t.Name, kind: kindTask, tasks: w.single[n-1 : n : n]})
	return w
}

// Alternatives appends a required step that tries the tasks in preference
// order and commits at most one (contingent transactions, §3.1.3 — the
// appendix's Delta/United/American flight preference).
func (w *Workflow) Alternatives(name string, tasks ...Task) *Workflow {
	w.steps = append(w.steps, step{name: name, kind: kindAlternatives, tasks: tasks})
	return w
}

// Race appends a required step that starts every task in parallel and
// commits whichever completes first, aborting the rest (the appendix's
// National-vs-Avis car rental).
func (w *Workflow) Race(name string, tasks ...Task) *Workflow {
	w.steps = append(w.steps, step{name: name, kind: kindRace, tasks: tasks})
	return w
}

// ParallelAll appends a required step whose tasks run in parallel and
// commit as one group (distributed-transaction semantics, §3.1.2): either
// every task commits or none does. On failure nothing from this step needs
// compensating; earlier steps compensate as usual. The step's compensation,
// when triggered by a *later* failure, runs every task's compensation.
func (w *Workflow) ParallelAll(name string, tasks ...Task) *Workflow {
	w.steps = append(w.steps, step{name: name, kind: kindParallelAll, tasks: tasks})
	return w
}

// Optional marks the most recently appended step as optional: its failure
// does not fail the workflow ("if a car cannot be rented, the trip can
// still proceed").
func (w *Workflow) Optional() *Workflow {
	if len(w.steps) > 0 {
		w.steps[len(w.steps)-1].optional = true
	}
	return w
}

// StepResult reports one step's outcome.
type StepResult struct {
	Step      string
	Chosen    string // the task that committed ("" if none)
	Committed bool
}

// Result reports a workflow execution.
type Result struct {
	// Steps holds per-step outcomes in order, up to the failure point.
	Steps []StepResult
	// FailedStep is the required step that failed ("" on success).
	FailedStep string
	// Compensated lists compensations run, in execution (reverse) order.
	Compensated []string
}

// Err returns nil on success and ErrFailed (wrapped) otherwise.
func (r *Result) Err() error {
	if r.FailedStep == "" {
		return nil
	}
	return fmt.Errorf("%w at step %q (%d compensations)", ErrFailed, r.FailedStep, len(r.Compensated))
}

// Run executes the workflow on m. A required step that fails triggers the
// compensations of every previously committed task in reverse order (each
// retried until it commits, like a saga), and the workflow reports failure
// through the result's Err.
func (w *Workflow) Run(m *asset.Manager) (*Result, error) {
	res := &Result{Steps: make([]StepResult, 0, len(w.steps))}
	// Committed tasks with compensations, in order: a handful, so the stack
	// starts out in this frame.
	var undoBuf [4]Task
	undoStack := undoBuf[:0]
	for _, s := range w.steps {
		committed, label, err := runStep(m, s)
		if err != nil {
			return res, err // infrastructure error
		}
		if committed == nil {
			if s.optional {
				res.Steps = append(res.Steps, StepResult{Step: s.name})
				continue
			}
			res.FailedStep = s.name
			if err := compensate(m, undoStack, res); err != nil {
				return res, err
			}
			return res, nil
		}
		res.Steps = append(res.Steps, StepResult{Step: s.name, Chosen: label, Committed: true})
		for _, task := range committed {
			if task.Compensate != nil {
				undoStack = append(undoStack, task)
			}
		}
	}
	return res, nil
}

// runStep executes one step. It returns the committed tasks (nil if the
// step failed) and a display label for the result.
func runStep(m *asset.Manager, s step) ([]Task, string, error) {
	switch s.kind {
	case kindTask, kindAlternatives:
		for i := range s.tasks {
			err := models.Atomic(m, s.tasks[i].Action)
			if err == nil {
				return s.tasks[i : i+1 : i+1], s.tasks[i].Name, nil
			}
			if !errors.Is(err, asset.ErrAborted) && !errors.Is(err, asset.ErrDeadlock) {
				return nil, "", err
			}
		}
		return nil, "", nil
	case kindRace:
		winner, err := runRace(m, s.tasks)
		if err != nil || winner == nil {
			return nil, "", err
		}
		return []Task{*winner}, winner.Name, nil
	case kindParallelAll:
		fns := make([]asset.TxnFunc, len(s.tasks))
		for i := range s.tasks {
			fns[i] = s.tasks[i].Action
		}
		err := models.Distributed(m, fns...)
		if err == nil {
			return append([]Task(nil), s.tasks...), fmt.Sprintf("all(%d)", len(s.tasks)), nil
		}
		if errors.Is(err, asset.ErrAborted) || errors.Is(err, asset.ErrDeadlock) {
			return nil, "", nil // the group aborted atomically
		}
		return nil, "", err
	default:
		return nil, "", fmt.Errorf("workflow: unknown step kind %d", s.kind)
	}
}

// runRace begins every task in parallel; the first to *complete* is
// committed and the rest are aborted, mirroring the appendix's
//
//	if (wait(t5)) { abort(t6); commit(t5); } else commit(t6);
//
// generalized to n competitors. If every competitor aborts, the race fails.
func runRace(m *asset.Manager, tasks []Task) (*Task, error) {
	if len(tasks) == 0 {
		return nil, nil
	}
	tids := make([]asset.TID, len(tasks))
	for i := range tasks {
		t, err := m.Initiate(tasks[i].Action)
		if err != nil {
			abortAll(m, tids[:i])
			return nil, err
		}
		tids[i] = t
	}
	if err := m.Begin(tids...); err != nil {
		// No dependency ties the competitors: the ones after the failure
		// would stay initiated for good, the ones before it run unclaimed.
		abortAll(m, tids)
		return nil, err
	}
	// One waiter per competitor; completions and aborts both report in.
	type outcome struct {
		idx int
		err error
	}
	ch := make(chan outcome, len(tasks))
	for i, t := range tids {
		//asset:goroutine joined-by=channel
		go func(i int, t asset.TID) { ch <- outcome{i, m.Wait(t)} }(i, t)
	}
	failures := 0
	for failures < len(tasks) {
		o := <-ch
		if o.err != nil {
			failures++
			continue
		}
		// First completion wins: abort everyone else, commit the winner.
		for j, other := range tids {
			if j != o.idx {
				m.Abort(other)
			}
		}
		if err := m.Commit(tids[o.idx]); err != nil {
			// The winner aborted between completion and commit; keep
			// listening for another completion.
			failures++
			continue
		}
		return &tasks[o.idx], nil
	}
	return nil, nil // every competitor aborted
}

// abortAll aborts every listed transaction; one already gone stays gone.
func abortAll(m *asset.Manager, tids []asset.TID) {
	for _, t := range tids {
		m.Abort(t)
	}
}

// compensate runs the undo stack in reverse order, each compensating
// transaction under models.Compensate, retried until it commits.
func compensate(m *asset.Manager, undo []Task, res *Result) error {
	for i := len(undo) - 1; i >= 0; i-- {
		if err := models.Compensate(m, undo[i].Name, undo[i].Compensate); err != nil {
			return err
		}
		res.Compensated = append(res.Compensated, undo[i].Name)
	}
	return nil
}
