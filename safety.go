package dynaplat

import (
	"dynaplat/internal/model"
	"dynaplat/internal/safety/monitor"
	"dynaplat/internal/safety/redundancy"
	"dynaplat/internal/safety/update"
	secpkg "dynaplat/internal/security/pkg"
)

// Safety and security facade: the update orchestrator (paper §3.2),
// fail-operational redundancy (§3.3), runtime monitoring (§3.4) and
// package security (§4.1).

type (
	// App is an application descriptor in the system model.
	App = model.App
	// UpdateManager orchestrates staged and stop-restart updates.
	UpdateManager = update.Manager
	// UpdateReport summarizes a completed update.
	UpdateReport = update.Report
	// UpdateOffers lists interfaces the new version re-offers.
	UpdateOffers = update.Offers
	// RedundancyManager replicates applications across ECUs.
	RedundancyManager = redundancy.Manager
	// RedundancyGroup is one replicated application.
	RedundancyGroup = redundancy.Group
	// RedundancyConfig tunes heartbeats and promotion.
	RedundancyConfig = redundancy.Config
	// Monitor watches deterministic applications at runtime.
	Monitor = monitor.Monitor
	// Package is an unsigned software package: app, version and image.
	Package = secpkg.Package
	// PackageAuthority signs software packages.
	PackageAuthority = secpkg.Authority
	// SignedPackage is a package plus its authority signature.
	SignedPackage = secpkg.Signed
	// TrustStore holds accepted authority keys.
	TrustStore = secpkg.TrustStore
	// MasterECU is an update master that verifies packages for weak ECUs.
	MasterECU = secpkg.MasterECU
	// MasterPool routes verification requests to the update masters.
	MasterPool = secpkg.MasterPool
	// Forwarded is a package a master verified, MAC-tagged for its ECU.
	Forwarded = secpkg.Forwarded
)

// NewUpdateManager creates an update orchestrator for a simulation.
func NewUpdateManager(s *Simulation) *UpdateManager {
	return update.NewManager(s.Platform, s.Middleware)
}

// NewRedundancyManager creates a redundancy manager for a simulation.
func NewRedundancyManager(s *Simulation) *RedundancyManager {
	return redundancy.NewManager(s.Platform)
}

// DefaultRedundancyConfig returns the standard heartbeat tuning.
func DefaultRedundancyConfig() RedundancyConfig { return redundancy.DefaultConfig() }

// NewMonitor attaches a runtime monitor to a node.
func NewMonitor(n *Node) *Monitor { return monitor.New(n, monitor.DefaultConfig()) }

// NewPackageAuthority creates a deterministic signing authority.
func NewPackageAuthority(name string, seed [32]byte) *PackageAuthority {
	return secpkg.NewAuthority(name, seed)
}

// NewTrustStore creates an empty trust store.
func NewTrustStore() *TrustStore { return secpkg.NewTrustStore() }

// NewMasterPool creates the update-master pool of a simulation.
func NewMasterPool(s *Simulation, trust *TrustStore, masters []*MasterECU) *MasterPool {
	return secpkg.NewMasterPool(s.Kernel, trust, masters)
}

// CheckForwarded checks a forwarded package's MAC under the ECU's key.
func CheckForwarded(f Forwarded, key []byte) error { return secpkg.CheckForwarded(f, key) }

// VerifyCost is the time a cpuMHz ECU takes to verify an n-byte package
// signature.
func VerifyCost(n, cpuMHz int, cryptoHW bool) Duration { return secpkg.VerifyCost(n, cpuMHz, cryptoHW) }

// MACCost is the time a cpuMHz ECU takes to check an n-byte package MAC.
func MACCost(n, cpuMHz int, cryptoHW bool) Duration { return secpkg.MACCost(n, cpuMHz, cryptoHW) }
