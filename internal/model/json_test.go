package model

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestJSONRoundTrip checks that the encoding is lossless: decoded back
// into its own mirror type, it rebuilds a system with the same DSL
// rendering and validation verdict, so tooling that compares encodings
// compares whole configurations.
func TestJSONRoundTrip(t *testing.T) {
	s := demo(t)
	data, err := MarshalJSONSystem(s)
	if err != nil {
		t.Fatal(err)
	}
	var js jsonSystem
	if err := json.Unmarshal(data, &js); err != nil {
		t.Fatal(err)
	}
	s2 := NewSystem(js.Name)
	s2.ECUs = js.ECUs
	s2.Networks = js.Networks
	s2.Apps = js.Apps
	s2.Interfaces = js.Interfaces
	s2.Bindings = js.Bindings
	if js.Placement != nil {
		s2.Placement = js.Placement
	}
	// Round trip must preserve the DSL rendering exactly.
	if Format(s) != Format(s2) {
		t.Errorf("JSON round trip lost data:\n%s\nvs\n%s", Format(s), Format(s2))
	}
	// And the validation verdict.
	if Validate(s).OK() != Validate(s2).OK() {
		t.Error("validation verdict changed")
	}
}

func TestJSONStableEncoding(t *testing.T) {
	s := demo(t)
	a, err := MarshalJSONSystem(s)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := MarshalJSONSystem(s)
	if string(a) != string(b) {
		t.Error("encoding not deterministic")
	}
	if !strings.Contains(string(a), `"name": "Demo"`) {
		t.Errorf("unexpected encoding: %.120s", a)
	}
}
