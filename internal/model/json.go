package model

import "encoding/json"

// A JSON encoding of the system model, for tooling that hashes or
// compares a configuration (the fuzz reconfig tier, the reconfig and
// admission tests). The encoding is stable: the same system always
// encodes to the same bytes. Models are read from the DSL only.

// jsonSystem mirrors System with exported, tagged fields.
type jsonSystem struct {
	Name       string            `json:"name"`
	ECUs       []*ECU            `json:"ecus,omitempty"`
	Networks   []*Network        `json:"networks,omitempty"`
	Apps       []*App            `json:"apps,omitempty"`
	Interfaces []*Interface      `json:"interfaces,omitempty"`
	Bindings   []Binding         `json:"bindings,omitempty"`
	Placement  map[string]string `json:"placement,omitempty"`
}

// MarshalJSONSystem encodes the system as deterministic, indented JSON.
func MarshalJSONSystem(s *System) ([]byte, error) {
	return json.MarshalIndent(jsonSystem{
		Name:       s.Name,
		ECUs:       s.ECUs,
		Networks:   s.Networks,
		Apps:       s.Apps,
		Interfaces: s.Interfaces,
		Bindings:   s.Bindings,
		Placement:  s.Placement,
	}, "", "  ")
}
