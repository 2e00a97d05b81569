package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package under analysis.
type Package struct {
	Path  string // import path (module path + relative dir)
	Dir   string // directory as given to the loader
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader enumerates, parses, and type-checks packages. One Loader
// shares a FileSet and importer across packages so dependency type
// information is checked once.
type Loader struct {
	Root string // module root (directory containing go.mod)

	fset       *token.FileSet
	imp        types.Importer
	modulePath string
}

// NewLoader returns a loader anchored at the module root.
func NewLoader(root string) (*Loader, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: cannot read go.mod: %v", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(mod), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:       root,
		fset:       fset,
		imp:        importer.ForCompiler(fset, "source", nil),
		modulePath: modPath,
	}, nil
}

// Load resolves the given patterns to package directories and returns
// the analyzed packages in deterministic (path-sorted) order. A
// pattern is either a directory (absolute or relative) or a directory
// followed by "/..." for a recursive walk. Walks skip testdata, vendor,
// hidden, and underscore-prefixed directories — matching the go tool —
// but a testdata directory named directly is loaded, which is how the
// fixture tests and the cmd/dynalint end-to-end test drive the suite.
func (l *Loader) Load(patterns []string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// expand turns patterns into a sorted, deduplicated list of directories
// that contain at least one non-test .go file.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := map[string]bool{}
	var dirs []string
	add := func(dir string) {
		if !seen[dir] && hasGoFiles(dir) {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			root := filepath.Clean(rest)
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || name == "vendor" ||
					strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("lint: %v", err)
			}
			continue
		}
		dir := filepath.Clean(pat)
		fi, err := os.Stat(dir)
		if err != nil || !fi.IsDir() {
			return nil, fmt.Errorf("lint: %q is not a package directory", pat)
		}
		add(dir)
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}

// LoadDir parses and type-checks the single package in dir. Test files
// (_test.go) are excluded by policy: tests are the measurement harness
// and may legitimately use wall time, goroutines, and ad-hoc ordering;
// the determinism contracts protect the simulation code under test.
// Files whose build constraints exclude them from the default build
// (go/build's default context, no tags) are skipped, so the loader
// checks what `go build` compiles. LoadDir returns (nil, nil) when the
// directory has no non-test Go files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %v", err)
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		} else if !ok {
			continue
		}
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %v", err)
		}
		files = append(files, f)
	}
	path := l.importPath(dir)
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %v", path, err)
	}
	return &Package{Path: path, Dir: dir, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

// importPath maps a directory to its import path under the module.
func (l *Loader) importPath(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return dir
	}
	rootAbs, err := filepath.Abs(l.Root)
	if err != nil {
		return dir
	}
	rel, err := filepath.Rel(rootAbs, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return dir
	}
	if rel == "." {
		return l.modulePath
	}
	return l.modulePath + "/" + filepath.ToSlash(rel)
}
