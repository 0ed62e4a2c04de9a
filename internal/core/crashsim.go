package core

import (
	"repro/internal/faultfs"
)

// CrashSim is a deterministic crash-simulation harness: it runs a
// workload against a manager whose durable files live on a
// fault-injected in-memory filesystem, freezes the file images at an
// injected crash point, and lets the caller reopen the database from
// the surviving image to assert recovery invariants.
//
// The sweep protocol:
//
//	n := sim.CountOps()                    // fault-free dry run
//	for at := 1; at <= n; at++ {
//	    mfs := sim.RunToCrash(at, tear)    // crash at the at'th fs op
//	    img := mfs.CrashImage(mode)        // what a reboot would find
//	    m, err := Open(Config{..., FS: img})
//	    ...assert invariants, close...
//	}
//
// Determinism requires a deterministic workload (sequential
// transactions, no data races on op ordering); then the dry run and
// every replay issue the same filesystem operation sequence, so crash
// point k always lands on the same operation.
type CrashSim struct {
	// Cfg configures the manager under test. Dir must be non-empty; FS
	// is installed by the harness.
	Cfg Config
	// Workload drives the manager. It must tolerate errors: once the
	// simulated crash fires, every filesystem operation fails, so
	// begins, commits and checkpoints after the crash point return
	// errors rather than hanging.
	Workload func(m *Manager)
}

// CountOps runs the workload with no faults injected and reports how
// many durability-relevant filesystem operations (writes, truncates,
// fsyncs) it issues end to end, including those of Open and Close.
// Crash points 1..n sweep every such operation.
func (s CrashSim) CountOps() int {
	mfs := faultfs.NewMem()
	s.runOn(mfs)
	return mfs.Ops()
}

// RunToCrash replays the workload with a crash injected at the
// crashAt'th durability-relevant operation (1-based). tear is the
// surviving byte prefix of the crashing write: -1 loses the write
// entirely, k >= 0 cuts it to its first k bytes (a torn sector).
// It returns the frozen filesystem; use CrashImage on it to materialize
// the state a rebooted machine would find under a given CrashMode.
func (s CrashSim) RunToCrash(crashAt, tear int) *faultfs.MemFS {
	mfs := faultfs.NewMem()
	mfs.SetScript(faultfs.NewScript(faultfs.Rule{
		Op: faultfs.OpAny, Nth: crashAt, Action: faultfs.ActCrash, Keep: tear,
	}))
	s.runOn(mfs)
	return mfs
}

// RunWithScript replays the workload under an arbitrary fault script
// (for randomized fault torture) and returns the filesystem afterwards,
// with the script disarmed so the caller can reopen over it directly.
func (s CrashSim) RunWithScript(script *faultfs.Script) *faultfs.MemFS {
	mfs := faultfs.NewMem()
	mfs.SetScript(script)
	s.runOn(mfs)
	mfs.SetScript(nil)
	return mfs
}

// runOn opens the manager over fsys, runs the workload, and closes,
// swallowing errors: the injected fault can fire anywhere, including
// inside Open or Close.
func (s CrashSim) runOn(fsys faultfs.FS) {
	cfg := s.Cfg
	cfg.FS = fsys
	m, err := Open(cfg)
	if err != nil {
		return
	}
	s.Workload(m)
	m.Close()
}
