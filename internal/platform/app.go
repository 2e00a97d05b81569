package platform

import (
	"fmt"

	"dynaplat/internal/model"
	"dynaplat/internal/sim"
)

// Behavior describes what an application does when activated.
type Behavior struct {
	// ExecTime samples the actual execution time of one activation
	// (deterministic apps). nil means "always exactly the WCET". The
	// result is clamped to (0, WCET].
	ExecTime func(r *sim.RNG) sim.Duration
	// OnActivate runs (in zero virtual time) when a deterministic
	// activation completes — the place where a control app publishes its
	// outputs via the SOA middleware.
	OnActivate func(job int64)
}

// AppInstance is one installed application on a node.
type AppInstance struct {
	node     *Node
	Spec     model.App
	Behavior Behavior
	State    AppState

	// Deterministic-app statistics.
	Activations int64
	Misses      int64
	// Response summarises release→completion; StartLag summarises
	// release→first-execution offsets (the monitor watches both).
	Response   sim.Stats
	StartLag   sim.Stats
	nextJob    int64
	releaseRef sim.EventRef
	// releaseFn is the cached periodic-release closure: re-arming a
	// period through it costs zero allocations (it reads nextJob instead
	// of capturing the job index).
	releaseFn func()

	// Non-deterministic-app statistics.
	JobsDone   int64
	JobLatency sim.Stats

	// CPUTime accumulates the virtual CPU time the app consumed
	// (deterministic execution plus completed NDA jobs) — the
	// per-application accounting the diagnosis services expose.
	CPUTime sim.Duration
}

// Node returns the hosting node.
func (a *AppInstance) Node() *Node { return a.node }

// Start begins execution: deterministic apps begin releasing jobs on
// their period; non-deterministic apps become eligible to Submit work.
func (a *AppInstance) Start() error {
	if a.State == StateRunning {
		return fmt.Errorf("platform: app %s already running", a.Spec.Name)
	}
	a.State = StateRunning
	if k := a.node.k; k.Tracing() {
		k.Trace("platform", "started %s", a.Spec.Name)
	}
	if a.Spec.Kind == model.Deterministic {
		a.scheduleNextRelease()
	}
	return nil
}

// Stop halts execution. Pending releases are canceled; in-flight NDA jobs
// finish (the CPU was already committed).
func (a *AppInstance) Stop() {
	if a.State != StateRunning {
		return
	}
	a.State = StateStopped
	a.releaseRef.Cancel()
	if k := a.node.k; k.Tracing() {
		k.Trace("platform", "stopped %s", a.Spec.Name)
	}
}

// scheduleNextRelease arms the next periodic job release. Releases align
// to the node's schedule epoch so job indices match table slots.
func (a *AppInstance) scheduleNextRelease() {
	if a.State != StateRunning {
		return
	}
	if a.releaseFn == nil {
		a.releaseFn = func() { a.release(a.nextJob) }
	}
	period := a.Spec.Period
	now := a.node.k.Now()
	// Next release at or after now, aligned to epoch + j*period.
	base := a.node.epoch
	var j int64
	if now > base {
		j = int64((now.Sub(base) + sim.Duration(period) - 1) / sim.Duration(period))
	}
	release := base.Add(sim.Duration(j) * period)
	a.nextJob = j
	a.releaseRef = a.node.k.AtPriority(release, sim.PriorityClock, a.releaseFn)
}

// release runs one deterministic job: the node's CPU model decides when
// it executes and completes.
func (a *AppInstance) release(job int64) {
	if a.State != StateRunning {
		return
	}
	// Arm the next period through the cached closure (no allocation).
	a.nextJob = job + 1
	a.releaseRef = a.node.k.After(a.Spec.Period, a.releaseFn)
	if a.node.health == HealthHung {
		// Hung node: the release instant passes but nothing executes —
		// no output, no heartbeat, no completion. Resources stay held;
		// execution resumes with the first release after the hang clears.
		return
	}
	release := a.node.k.Now()
	exec := a.inflate(a.execTime())
	a.CPUTime += exec
	deadline := release.Add(a.Spec.Deadline)
	a.node.runDA(a, job, exec, release, deadline)
}

func (a *AppInstance) execTime() sim.Duration {
	wcet := a.node.ecu.ScaledWCET(a.Spec.WCET)
	if a.Behavior.ExecTime == nil {
		return wcet
	}
	e := a.Behavior.ExecTime(a.node.rng)
	if e <= 0 {
		e = sim.Nanosecond
	}
	if e > wcet {
		e = wcet
	}
	return e
}

// inflate applies the node's slow-down factor after the WCET clamp, so
// an injected slow-down can violate the WCET assumption.
func (a *AppInstance) inflate(e sim.Duration) sim.Duration {
	if f := a.node.slowdown; f > 1 {
		return sim.Duration(float64(e) * f)
	}
	return e
}

// complete records a finished deterministic activation.
func (a *AppInstance) complete(job int64, release, started, finished, deadline sim.Time) {
	a.Activations++
	a.Response.AddDuration(finished.Sub(release))
	a.StartLag.AddDuration(started.Sub(release))
	missed := finished > deadline
	if missed {
		a.Misses++
		a.node.diag.RecordFault(Fault{
			App: a.Spec.Name, Kind: FaultDeadlineMiss,
			At:     finished,
			Detail: fmt.Sprintf("job %d finished %v after deadline", job, finished.Sub(deadline)),
		})
	}
	if a.Behavior.OnActivate != nil {
		a.Behavior.OnActivate(job)
	}
	a.node.notifyComplete(Completion{
		App: a.Spec.Name, Job: job,
		Release: release, Started: started, Finished: finished,
		Deadline: deadline, Missed: missed,
	})
}

// Submit hands a non-deterministic job (exec virtual CPU time) to the
// node. done, if non-nil, runs at completion. Returns an error if the
// app is not running.
func (a *AppInstance) Submit(exec sim.Duration, done func()) error {
	if a.State != StateRunning {
		return fmt.Errorf("platform: app %s not running", a.Spec.Name)
	}
	if a.node.health == HealthHung {
		return fmt.Errorf("platform: node %s is hung", a.node.ecu.Name)
	}
	if a.Spec.Kind != model.NonDeterministic {
		return fmt.Errorf("platform: %s is deterministic; it runs on its period", a.Spec.Name)
	}
	if exec <= 0 {
		return fmt.Errorf("platform: non-positive job time %v", exec)
	}
	submitted := a.node.k.Now()
	a.node.runNDA(a, exec, func() {
		a.JobsDone++
		a.CPUTime += exec
		a.JobLatency.AddDuration(a.node.k.Now().Sub(submitted))
		if done != nil {
			done()
		}
	})
	return nil
}

// MissRate returns the fraction of activations that missed their
// deadline.
func (a *AppInstance) MissRate() float64 {
	if a.Activations == 0 {
		return 0
	}
	return float64(a.Misses) / float64(a.Activations)
}
