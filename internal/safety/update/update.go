// Package update implements the paper's Section 3.2 update-safety
// machinery: the four-phase staged runtime update — (1) start the new
// version in parallel, (2) synchronize internal state, (3) redirect
// traffic, (4) stop the old version — plus the naive stop-update-restart
// baseline and the orchestrated step-by-step update of distributed
// functions versus a synchronized central switch.
package update

import (
	"fmt"

	"dynaplat/internal/model"
	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
	"dynaplat/internal/soa"
)

// Phase identifies a staged-update phase.
type Phase int

const (
	PhaseParallelStart Phase = iota
	PhaseStateSync
	PhaseRedirect
	PhaseStopOld
)

func (p Phase) String() string {
	switch p {
	case PhaseParallelStart:
		return "parallel-start"
	case PhaseStateSync:
		return "state-sync"
	case PhaseRedirect:
		return "redirect"
	case PhaseStopOld:
		return "stop-old"
	}
	return "unknown"
}

// Stamp records one phase's execution window.
type Stamp struct {
	Phase      Phase
	Start, End sim.Time
}

// Report summarizes a completed update.
type Report struct {
	Logical  string
	From, To int
	Stamps   []Stamp
	// PeakMemoryKB is the largest domain commitment during the update
	// (staged updates double the app's footprint, Section 3.2).
	PeakMemoryKB int
	// Downtime is the window during which the app was not serving:
	// ~0 for staged updates, the whole reinstall window for the baseline.
	Downtime sim.Duration
	// SyncedKeys counts state entries copied in PhaseStateSync.
	SyncedKeys int
	// RolledBack reports that the update was undone and the old version
	// kept serving: a verified update failed its check, or the new
	// version did not start.
	RolledBack bool
}

// The update cost model.
const (
	// StartupBase is the fixed app start latency; startupPerKB adds
	// image-size-dependent load time.
	StartupBase  = 20 * sim.Millisecond
	startupPerKB = 10 * sim.Microsecond
	// syncPerKey is the state-synchronization cost per persisted key.
	syncPerKey = 500 * sim.Microsecond
	// redirectPerIface is the traffic-redirection cost per interface.
	redirectPerIface = sim.Millisecond
)

// Manager orchestrates updates on a platform.
type Manager struct {
	k  *sim.Kernel
	p  *platform.Platform
	mw *soa.Middleware
	// active maps a logical app name to its current instance name
	// (instances are suffixed with their version, e.g. "brake@2").
	active map[string]string
}

// NewManager creates an update manager. mw may be nil when the updated
// apps offer no services.
func NewManager(p *platform.Platform, mw *soa.Middleware) *Manager {
	return &Manager{k: p.Kernel(), p: p, mw: mw, active: map[string]string{}}
}

// InstanceName returns the running instance name for a logical app
// (defaulting to the logical name before any update).
func (m *Manager) InstanceName(logical string) string {
	if n, ok := m.active[logical]; ok {
		return n
	}
	return logical
}

// Track registers an already-installed instance as the current version of
// a logical app.
func (m *Manager) Track(logical, instance string) { m.active[logical] = instance }

func (m *Manager) startupTime(spec model.App) sim.Duration {
	return StartupBase + sim.Duration(spec.MemoryKB)*startupPerKB
}

// Offers describes the interfaces the new version must (re-)offer after
// redirect. Behaviors are installed on the new instance.
type Offers struct {
	Iface string
	Opts  soa.OfferOpts
}

// Staged performs the four-phase runtime update of a logical app on its
// node. The update is asynchronous in virtual time; errors that occur
// before any phase starts are returned synchronously. done receives the
// report once the update has committed or rolled back.
//
// With verify nil this is the blind update: phase 4 (stop-old) follows
// redirect at once and commits whatever arrived. Otherwise the paper's
// verification step runs between redirect and phase 4: the old version
// is kept alive through a soak window, then verify checks the
// intermediate configuration. Only a passing verification triggers
// phase 4; a failure rolls traffic back to the old version and removes
// the new one, so the update is atomic from the vehicle's perspective.
// On rollback, Report.RolledBack is true and the old version keeps
// serving.
func (m *Manager) Staged(logical string, newSpec model.App, b platform.Behavior,
	offers []Offers, soak sim.Duration, verify func() error, done func(Report)) error {

	oldName := m.InstanceName(logical)
	inst, node := m.p.FindApp(oldName)
	if inst == nil {
		return fmt.Errorf("update: app %s not found", oldName)
	}
	newName := fmt.Sprintf("%s@%d", logical, newSpec.Version)
	if newName == oldName {
		return fmt.Errorf("update: version %d already active", newSpec.Version)
	}
	spec := newSpec
	spec.Name = newName

	rep := Report{Logical: logical, From: inst.Spec.Version, To: newSpec.Version}
	stamp := func(ph Phase, start sim.Time) {
		rep.Stamps = append(rep.Stamps, Stamp{Phase: ph, Start: start, End: m.k.Now()})
	}

	// Snapshot the pre-update service state: which of the campaign's
	// interfaces already exist with the old instance as provider, and at
	// which contract version. Rollback restores exactly this set —
	// re-offering an interface the old version never provided would
	// leave ghost services behind after the new endpoint is removed.
	preOffered := map[string]int{}
	if m.mw != nil {
		for _, o := range offers {
			if prov, ver, err := m.mw.Find(o.Iface); err == nil && prov == oldName {
				preOffered[o.Iface] = ver
			}
		}
	}

	// Phase 1: start the new version in parallel with the old one.
	// Both instances' memory is committed simultaneously: the resource
	// cost the paper calls out.
	p1 := m.k.Now()
	newInst, err := node.Install(spec, b)
	if err != nil {
		return fmt.Errorf("update: parallel install: %w", err)
	}
	rep.PeakMemoryKB = node.Memory().CommittedKB()

	rollback := func(reason error) {
		// Redirect traffic back to the old version and drop the new one.
		// Only the services the old version provided before the update
		// are re-offered, at their pre-update versions; interfaces the
		// new version introduced die with its endpoint. Services still
		// pointing at the old provider (rollback before redirect) are
		// left untouched.
		if m.mw != nil {
			ep := m.mw.Endpoint(oldName, node.ECU().Name)
			for _, o := range offers {
				ver, existed := preOffered[o.Iface]
				if BugRollbackReofferAll {
					existed = true
				}
				if !existed {
					continue
				}
				if prov, _, err := m.mw.Find(o.Iface); err == nil && prov == oldName {
					continue
				}
				opts := o.Opts
				opts.Version = ver
				ep.Offer(o.Iface, opts)
			}
			m.mw.RemoveEndpoint(newName)
		}
		newInst.Stop()
		node.Uninstall(newName)
		// Discard the state synchronized to the version that never went
		// live: the persistence store must read as if the update had
		// never been attempted.
		node.Store().DropApp(newName)
		rep.RolledBack = true
		node.Diag().RecordFault(platform.Fault{
			App: logical, Kind: platform.FaultUpdateAborted,
			At: m.k.Now(), Detail: "rolled back: " + reason.Error(),
		})
		node.Kernel().Trace("update", "rolled back %s v%d→v%d: %v",
			logical, rep.From, rep.To, reason)
		if done != nil {
			done(rep)
		}
	}

	// Phase 4: stop and remove the old version. Uninstall fails only when
	// the old version is already gone (a task set minus one task stays
	// EDF-schedulable), and a version that is gone counts as stopped: the
	// update commits, and the logical app keeps exactly one serving
	// instance.
	stopOld := func() {
		p4 := m.k.Now()
		if m.mw != nil {
			m.mw.RemoveEndpoint(oldName)
		}
		node.Uninstall(oldName)
		m.active[logical] = newName
		stamp(PhaseStopOld, p4)
		if verify == nil {
			node.Kernel().Trace("update", "staged %s v%d→v%d complete", logical, rep.From, rep.To)
		} else {
			node.Kernel().Trace("update", "verified staged %s v%d→v%d", logical, rep.From, rep.To)
		}
		if done != nil {
			done(rep)
		}
	}

	m.k.After(m.startupTime(spec), func() {
		if err := newInst.Start(); err != nil {
			rollback(err)
			return
		}
		stamp(PhaseParallelStart, p1)

		// Phase 2: synchronize internal state old → new.
		p2 := m.k.Now()
		keys := node.Store().Keys(oldName)
		m.k.After(sim.Duration(len(keys))*syncPerKey, func() {
			rep.SyncedKeys = node.Store().CopyAll(oldName, newName)
			stamp(PhaseStateSync, p2)

			// Phase 3: redirect all traffic to the new version.
			p3 := m.k.Now()
			m.k.After(sim.Duration(len(offers))*redirectPerIface, func() {
				if m.mw != nil {
					ep := m.mw.Endpoint(newName, node.ECU().Name)
					for _, o := range offers {
						opts := o.Opts
						if opts.Version == 0 {
							opts.Version = newSpec.Version
						}
						ep.Offer(o.Iface, opts)
					}
				}
				stamp(PhaseRedirect, p3)
				if verify == nil {
					stopOld()
					return
				}
				// Soak, then verify the intermediate configuration.
				m.k.After(soak, func() {
					if err := verify(); err != nil {
						rollback(err)
						return
					}
					stopOld()
				})
			})
		})
	})
	return nil
}

// StopRestart performs the naive baseline: stop the old version, then
// install and start the new one. The app serves nothing in between.
func (m *Manager) StopRestart(logical string, newSpec model.App, b platform.Behavior,
	offers []Offers, done func(Report)) error {

	oldName := m.InstanceName(logical)
	inst, node := m.p.FindApp(oldName)
	if inst == nil {
		return fmt.Errorf("update: app %s not found", oldName)
	}
	newName := fmt.Sprintf("%s@%d", logical, newSpec.Version)
	spec := newSpec
	spec.Name = newName

	rep := Report{Logical: logical, From: inst.Spec.Version, To: newSpec.Version}
	downStart := m.k.Now()
	inst.Stop()
	if m.mw != nil {
		m.mw.RemoveEndpoint(oldName)
	}
	if err := node.Uninstall(oldName); err != nil {
		return err
	}
	newInst, err := node.Install(spec, b)
	if err != nil {
		// The old version is already gone: this is exactly the risk of
		// the naive scheme.
		node.Diag().RecordFault(platform.Fault{
			App: logical, Kind: platform.FaultUpdateAborted,
			At: m.k.Now(), Detail: err.Error(),
		})
		return fmt.Errorf("update: reinstall failed, app lost: %w", err)
	}
	rep.PeakMemoryKB = node.Memory().CommittedKB()
	m.k.After(m.startupTime(spec), func() {
		if err := newInst.Start(); err != nil {
			return
		}
		if m.mw != nil {
			ep := m.mw.Endpoint(newName, node.ECU().Name)
			for _, o := range offers {
				ep.Offer(o.Iface, o.Opts)
			}
		}
		m.active[logical] = newName
		rep.Downtime = m.k.Now().Sub(downStart)
		node.Kernel().Trace("update", "stop-restart %s v%d→v%d, downtime %v",
			logical, rep.From, rep.To, rep.Downtime)
		if done != nil {
			done(rep)
		}
	})
	return nil
}
