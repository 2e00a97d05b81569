package update

import (
	"fmt"

	"dynaplat/internal/model"
	"dynaplat/internal/platform"
	"dynaplat/internal/sim"
)

// StagedVerified extends the four-phase update with the paper's
// verification step: after traffic is redirected to the new version, the
// old version is kept alive through a soak window while verify checks
// the intermediate configuration. Only a passing verification triggers
// phase 4 (stop-old); a failure rolls traffic back to the old version
// and removes the new one — the update is atomic from the vehicle's
// perspective.
//
// verify runs in virtual time at the end of the soak window and returns
// nil when the new version behaves. done receives the report; on
// rollback, Report.RolledBack is true and the old version keeps serving.
func (m *Manager) StagedVerified(logical string, newSpec model.App, b platform.Behavior,
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

	// Phase 1: parallel start.
	p1 := m.k.Now()
	newInst, err := node.Install(spec, b)
	if err != nil {
		return fmt.Errorf("update: parallel install: %w", err)
	}
	rep.PeakMemoryKB = node.Memory().CommittedKB()

	offerTo := func(app string) {
		if m.mw == nil {
			return
		}
		ep := m.mw.Endpoint(app, node.ECU().Name)
		for _, o := range offers {
			opts := o.Opts
			if opts.Version == 0 {
				opts.Version = newSpec.Version
			}
			ep.Offer(o.Iface, opts)
		}
	}

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

	m.k.After(m.startupTime(spec), func() {
		if err := newInst.Start(); err != nil {
			rollback(err)
			return
		}
		stamp(PhaseParallelStart, p1)

		// Phase 2: state sync.
		p2 := m.k.Now()
		keys := node.Store().Keys(oldName)
		m.k.After(sim.Duration(len(keys))*syncPerKey, func() {
			rep.SyncedKeys = node.Store().CopyAll(oldName, newName)
			stamp(PhaseStateSync, p2)

			// Phase 3: redirect to the new version.
			p3 := m.k.Now()
			m.k.After(sim.Duration(len(offers))*redirectPerIface, func() {
				offerTo(newName)
				stamp(PhaseRedirect, p3)

				// Soak, then verify the intermediate configuration.
				m.k.After(soak, func() {
					if verify != nil {
						if err := verify(); err != nil {
							rollback(err)
							return
						}
					}
					// Phase 4: stop and remove the old version.
					p4 := m.k.Now()
					if m.mw != nil {
						m.mw.RemoveEndpoint(oldName)
					}
					if err := node.Uninstall(oldName); err != nil {
						rollback(err)
						return
					}
					m.active[logical] = newName
					stamp(PhaseStopOld, p4)
					node.Kernel().Trace("update", "verified staged %s v%d→v%d",
						logical, rep.From, rep.To)
					if done != nil {
						done(rep)
					}
				})
			})
		})
	})
	return nil
}
