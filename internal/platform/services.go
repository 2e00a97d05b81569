package platform

import (
	"sort"

	"dynaplat/internal/sim"
)

// This file provides the common platform services the paper's Section 1.1
// lists: persistence (e.g. for configurations) and diagnosis. Logging is
// the kernel trace: a node writes its install, start, stop, fault and
// mode lines with sim.Kernel.Trace under the categories "platform",
// "fault" and "mode", which cost nothing when the run is not observed.

// PersistenceService is a per-app key/value store surviving app restarts
// (it belongs to the platform, not the app process).
type PersistenceService struct {
	data map[string]map[string][]byte
}

// NewPersistenceService creates an empty store.
func NewPersistenceService() *PersistenceService {
	return &PersistenceService{data: map[string]map[string][]byte{}}
}

// Put stores a value under (app, key). The value is copied.
func (p *PersistenceService) Put(app, key string, value []byte) {
	m, ok := p.data[app]
	if !ok {
		m = map[string][]byte{}
		p.data[app] = m
	}
	m[key] = append([]byte(nil), value...)
}

// Get retrieves a value; ok is false when absent.
func (p *PersistenceService) Get(app, key string) (value []byte, ok bool) {
	v, ok := p.data[app][key]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), v...), true
}

// Delete removes a key.
func (p *PersistenceService) Delete(app, key string) { delete(p.data[app], key) }

// DropApp removes every key of an app. The staged-update rollback uses
// it to discard state synchronized to a new version that never went
// live — an aborted update must leave the store byte-identical.
func (p *PersistenceService) DropApp(app string) { delete(p.data, app) }

// Keys lists an app's keys, sorted.
func (p *PersistenceService) Keys(app string) []string {
	var out []string
	for k := range p.data[app] {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// CopyAll snapshots every (key, value) of an app — used by the staged
// update's state-synchronization step (Section 3.2).
func (p *PersistenceService) CopyAll(fromApp, toApp string) int {
	n := 0
	for k, v := range p.data[fromApp] {
		p.Put(toApp, k, v)
		n++
	}
	return n
}

// FaultKind classifies diagnosis records.
type FaultKind int

const (
	FaultDeadlineMiss FaultKind = iota
	FaultJitterExceeded
	FaultMemoryBudget
	FaultStarvation
	FaultHeartbeatLost
	FaultUpdateAborted
	FaultSecurity
)

func (f FaultKind) String() string {
	switch f {
	case FaultDeadlineMiss:
		return "deadline-miss"
	case FaultJitterExceeded:
		return "jitter-exceeded"
	case FaultMemoryBudget:
		return "memory-budget"
	case FaultStarvation:
		return "starvation"
	case FaultHeartbeatLost:
		return "heartbeat-lost"
	case FaultUpdateAborted:
		return "update-aborted"
	case FaultSecurity:
		return "security"
	}
	return "unknown"
}

// Fault is one diagnosis record (Section 3.4: conditions leading to
// faults are recorded and can be transferred to the manufacturer).
type Fault struct {
	App    string
	Kind   FaultKind
	At     sim.Time
	Detail string
}

// DiagnosisService collects fault records and forwards them to an
// optional backend uplink.
type DiagnosisService struct {
	k      *sim.Kernel
	faults []Fault
	uplink func(Fault)
}

// NewDiagnosisService creates an empty diagnosis store.
func NewDiagnosisService(k *sim.Kernel) *DiagnosisService {
	return &DiagnosisService{k: k}
}

// SetUplink installs the manufacturer-backend forwarder.
func (d *DiagnosisService) SetUplink(fn func(Fault)) { d.uplink = fn }

// RecordFault stores a fault and forwards it.
func (d *DiagnosisService) RecordFault(f Fault) {
	d.faults = append(d.faults, f)
	if d.uplink != nil {
		d.uplink(f)
	}
}

// Faults returns all recorded faults.
func (d *DiagnosisService) Faults() []Fault { return d.faults }

// FaultsOf returns the faults recorded for one app.
func (d *DiagnosisService) FaultsOf(app string) []Fault {
	var out []Fault
	for _, f := range d.faults {
		if f.App == app {
			out = append(out, f)
		}
	}
	return out
}

// CountKind returns how many faults of the kind were recorded.
func (d *DiagnosisService) CountKind(k FaultKind) int {
	n := 0
	for _, f := range d.faults {
		if f.Kind == k {
			n++
		}
	}
	return n
}
