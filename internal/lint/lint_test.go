package lint

import (
	"fmt"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// loadFixture type-checks one testdata package through the real loader.
func loadFixture(t *testing.T, name string) []*Package {
	t.Helper()
	loader, err := NewLoader("../..")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load([]string{filepath.Join("testdata", name)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs
}

var wantRe = regexp.MustCompile(`want:([a-z]+)`)

// wantedFindings scans fixture sources for `want:<check>` markers and
// returns the expected "file:line:check" set.
func wantedFindings(t *testing.T, dir string) map[string]bool {
	t.Helper()
	want := map[string]bool{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				want[fmt.Sprintf("%s:%d:%s", e.Name(), i+1, m[1])] = true
			}
		}
	}
	return want
}

func keyOf(d Diagnostic) string {
	return fmt.Sprintf("%s:%d:%s", filepath.Base(d.File), d.Line, d.Check)
}

// TestFixtures runs each analyzer over its fixture package and checks
// the findings match the in-file want markers exactly: every true
// positive fires, every suppressed case stays silent, every clean case
// stays clean.
func TestFixtures(t *testing.T) {
	for _, a := range Analyzers() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			pkgs := loadFixture(t, a.Name)
			got := map[string]bool{}
			for _, d := range RunSuite([]*Analyzer{a}, pkgs) {
				got[keyOf(d)] = true
			}
			want := wantedFindings(t, filepath.Join("testdata", a.Name))
			for k := range want {
				if !got[k] {
					t.Errorf("missing expected finding %s", k)
				}
			}
			for k := range got {
				if !want[k] {
					t.Errorf("unexpected finding %s", k)
				}
			}
		})
	}
}

// TestLoaderHonorsBuildTags: a package that declares a constant once
// per build, in two files with opposite build constraints, type-checks
// with the file the default build compiles.
func TestLoaderHonorsBuildTags(t *testing.T) {
	pkgs := loadFixture(t, "buildtags")
	obj := pkgs[0].Types.Scope().Lookup("mode")
	c, ok := obj.(*types.Const)
	if !ok || c.Val().ExactString() != `"default"` {
		t.Errorf("mode = %v, want the default build's constant", obj)
	}
}

// TestQoSLeakRegression pins the PR 3 bug class: the pre-fix deadline-
// supervision shape in qosleak.go must be flagged by droppedref (both
// arm sites), while the shipped fix — storing the ref in sub.superRef —
// must stay clean. This proves the check would have caught the leak
// before it shipped.
func TestQoSLeakRegression(t *testing.T) {
	pkgs := loadFixture(t, "droppedref")
	var inLeak, elsewhere []Diagnostic
	for _, d := range RunSuite([]*Analyzer{DroppedrefAnalyzer()}, pkgs) {
		if filepath.Base(d.File) != "qosleak.go" {
			continue
		}
		if strings.Contains(d.Message, "durable named function") {
			inLeak = append(inLeak, d)
		} else {
			elsewhere = append(elsewhere, d)
		}
	}
	if len(inLeak) != 2 {
		t.Fatalf("superviseLeak: got %d droppedref findings, want 2 (re-arm + initial arm): %v", len(inLeak), inLeak)
	}
	if len(elsewhere) != 0 {
		t.Fatalf("superviseFixed/unsubscribe must be clean, got %v", elsewhere)
	}
}

// TestSuppressionRequiresReason: a reason-less allow must not suppress,
// and must itself be reported (walltime fixture NoReason case).
func TestSuppressionRequiresReason(t *testing.T) {
	pkgs := loadFixture(t, "walltime")
	diags := RunSuite([]*Analyzer{WalltimeAnalyzer()}, pkgs)
	var sawAllow, sawWalltime bool
	for _, d := range diags {
		if filepath.Base(d.File) != "bad.go" {
			continue
		}
		if d.Check == "allow" && strings.Contains(d.Message, "needs a reason") {
			sawAllow = true
		}
		if d.Check == "walltime" && strings.Contains(d.Message, "time.Now") {
			sawWalltime = true
		}
	}
	if !sawAllow {
		t.Error("reason-less allow was not reported")
	}
	if !sawWalltime {
		t.Error("reason-less allow suppressed the finding it decorated")
	}
}

func TestExempted(t *testing.T) {
	a := &Analyzer{Name: "x", Exempt: []string{"dynaplat/cmd", "dynaplat/internal/experiments"}}
	cases := []struct {
		path string
		want bool
	}{
		{"dynaplat/cmd", true},
		{"dynaplat/cmd/exprun", true},
		{"dynaplat/cmdline", false}, // prefix match is per path segment
		{"dynaplat/internal/experiments", true},
		{"dynaplat/internal/soa", false},
	}
	for _, c := range cases {
		if got := a.Exempted(c.path); got != c.want {
			t.Errorf("Exempted(%s) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 7, nil", len(all), err)
	}
	two, err := ByName("walltime, droppedref")
	if err != nil || len(two) != 2 {
		t.Fatalf("subset: got %d, err %v", len(two), err)
	}
	if two[0].Name != "walltime" || two[1].Name != "droppedref" {
		t.Fatalf("subset order: %s, %s", two[0].Name, two[1].Name)
	}
	if _, err := ByName("nosuchcheck"); err == nil {
		t.Fatal("unknown check name must error")
	}
}

// TestDiagnosticsSorted: RunSuite output is position-sorted so dynalint
// output (and the cmd golden test) is byte-stable.
func TestDiagnosticsSorted(t *testing.T) {
	pkgs := loadFixture(t, "walltime")
	diags := RunSuite([]*Analyzer{WalltimeAnalyzer()}, pkgs)
	if len(diags) < 2 {
		t.Fatalf("want multiple findings, got %d", len(diags))
	}
	sorted := sort.SliceIsSorted(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
	if !sorted {
		t.Error("diagnostics are not position-sorted")
	}
}
