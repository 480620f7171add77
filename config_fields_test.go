package repro

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// configStructs are the product configuration structs whose every field must
// have a setter somewhere in the tree: a field no caller sets is a constant
// with defaulting code and docs around it.
var configStructs = map[string][]string{
	"repro/internal/core":      {"Config"},
	"repro/internal/rts":       {"Config", "PoolConfig", "MachineConfig"},
	"repro/internal/remoterts": {"Config", "AgentConfig", "EventServer"},
	"repro/internal/daemon":    {"Config"},
	"repro/internal/transport": {"Options"},
	"repro/internal/broker":    {"Options"},
	"repro/internal/journal":   {"Options"},
	"repro/internal/autotune":  {"Policy"},
	"repro/entk":               {"AppConfig", "Tuning", "Autotune"},
}

// TestEveryConfigFieldIsSet reads every type-checked Go file outside the
// frozen bench/ harness — product code, tests and examples — and fails on an
// exported field of a configStructs struct that nothing sets. Set means a
// composite-literal key, an assignment, ++/-- or a taken address (a flag
// binding), anywhere but in the struct's own defaulting code (a function of
// its package whose name mentions "default"). A field copied from another
// such field — a pass-through — is set only if its source is.
func TestEveryConfigFieldIsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m := loadModule(t)
	s := setters{direct: map[string]bool{}, copied: map[string][]string{}}
	for _, pkg := range m.pkgs {
		if !strings.HasPrefix(pkg.path, "repro/bench") {
			s.record(pkg.path, pkg.files, pkg.info)
		}
	}

	var fields int
	var unset []string
	for path, names := range configStructs {
		pkg, err := m.imp.Import(path)
		if err != nil {
			t.Fatalf("import %s: %v", path, err)
		}
		for _, name := range names {
			st, ok := pkg.Scope().Lookup(name).Type().Underlying().(*types.Struct)
			if !ok {
				t.Fatalf("%s.%s is not a struct", path, name)
			}
			for i := 0; i < st.NumFields(); i++ {
				if !st.Field(i).Exported() {
					continue
				}
				fields++
				if key := fieldKey(path, name, st.Field(i).Name()); !s.resolve(key, map[string]bool{}) {
					unset = append(unset, key)
				}
			}
		}
	}
	t.Logf("%d exported fields across the configuration structs", fields)
	if len(unset) > 0 {
		sort.Strings(unset)
		t.Errorf("%d configuration fields are never set outside their defaulting code; make each a constant:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

func fieldKey(path, typ, field string) string {
	return strings.TrimPrefix(path, "repro/") + "." + typ + "." + field
}

// module is every package of the module, parsed and type-checked once per
// test binary for every test that reads the source: each package with its
// in-package tests, then its external test package as an entry of its own.
type module struct {
	fset *token.FileSet
	pkgs []checkedPackage
	// imp serves any package the module builds against from its export data.
	imp types.Importer
}

// checkedPackage is one type-checked package; names[i] is files[i]'s path
// relative to the module root, with forward slashes.
type checkedPackage struct {
	path  string // "_test"-suffixed for an external test package
	types *types.Package
	files []*ast.File
	names []string
	info  *types.Info
}

var (
	moduleOnce sync.Once
	loaded     *module
	loadErr    error
)

// loadModule returns the module, loading it on first use.
func loadModule(t *testing.T) *module {
	t.Helper()
	moduleOnce.Do(func() { loaded, loadErr = load() })
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

func load() (*module, error) {
	pkgs, exports, err := listPackages()
	if err != nil {
		return nil, err
	}
	root, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	m := &module{fset: token.NewFileSet()}
	m.imp = importer.ForCompiler(m.fset, "gc", exportLookup(exports, ""))
	for _, pkg := range pkgs {
		p, err := check(m.fset, root, pkg.ImportPath, pkg.Dir, append(pkg.GoFiles, pkg.TestGoFiles...), m.imp)
		if err != nil {
			return nil, err
		}
		m.pkgs = append(m.pkgs, p)
		if len(pkg.XTestGoFiles) > 0 {
			// Against the test-augmented build of the package, as `go test`
			// builds it.
			imp := importer.ForCompiler(m.fset, "gc", exportLookup(exports, pkg.ImportPath))
			p, err := check(m.fset, root, pkg.ImportPath+"_test", pkg.Dir, pkg.XTestGoFiles, imp)
			if err != nil {
				return nil, err
			}
			m.pkgs = append(m.pkgs, p)
		}
	}
	return m, nil
}

// listedPackage is what `go list -json` reports of one package.
type listedPackage struct {
	ImportPath, Dir, Export, ForTest   string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// listPackages lists the module's packages, and maps every package they and
// their tests import to its export data — test-augmented variants under
// "path [path.test]".
func listPackages() ([]listedPackage, map[string]string, error) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-test", "-json", "./...").Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("go list: %v", err)
		}
		exports[p.ImportPath] = p.Export
		if !p.Standard && p.ForTest == "" && !strings.HasSuffix(p.ImportPath, ".test") {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, exports, nil
}

// exportLookup opens export data by import path, serving testPkg (when set)
// in its test-augmented form, as `go test` builds an external test package.
func exportLookup(exports map[string]string, testPkg string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file := exports[path]
		if aug := exports[path+" ["+path+".test]"]; path == testPkg && aug != "" {
			file = aug
		}
		if file == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(file)
	}
}

// check parses and type-checks the named files of dir as package path,
// importing through imp.
func check(fset *token.FileSet, root, path, dir string, names []string, imp types.Importer) (checkedPackage, error) {
	p := checkedPackage{
		path: path,
		info: &types.Info{
			Types:     map[ast.Expr]types.TypeAndValue{},
			Defs:      map[*ast.Ident]types.Object{},
			Uses:      map[*ast.Ident]types.Object{},
			Implicits: map[ast.Node]types.Object{}, // an import's package name (PkgNameOf)
		},
	}
	for _, name := range names {
		file := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			return p, err
		}
		rel, err := filepath.Rel(root, file)
		if err != nil {
			return p, err
		}
		p.files = append(p.files, f)
		p.names = append(p.names, filepath.ToSlash(rel))
	}
	conf := types.Config{Importer: imp}
	var err error
	if p.types, err = conf.Check(path, fset, p.files, p.info); err != nil {
		return p, fmt.Errorf("type-check %s: %v", path, err)
	}
	return p, nil
}

// setters collects where configStructs fields are set: outright, or only
// copied from another configStructs field (a pass-through, which is a setter
// only if its source is).
type setters struct {
	direct map[string]bool
	copied map[string][]string
}

// record adds the sets in files, the package path's files type-checked
// into info.
func (s *setters) record(path string, files []*ast.File, info *types.Info) {
	field := func(e ast.Expr) (string, bool) {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return "", false
		}
		return configField(info.Uses[sel.Sel])
	}
	set := func(key string, value ast.Expr) {
		if src, ok := field(value); ok {
			s.copied[key] = append(s.copied[key], src)
		} else {
			s.direct[key] = true
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			defaulting := false
			if fd, ok := decl.(*ast.FuncDecl); ok {
				defaulting = strings.Contains(strings.ToLower(fd.Name.Name), "default")
			}
			ownDefault := func(key string) bool {
				return defaulting && strings.HasPrefix(key, strings.TrimPrefix(path, "repro/")+".")
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.KeyValueExpr:
					// A struct literal's key; unkeyed literals of these
					// structs would read as setting nothing (vet's
					// composites check already rejects them across
					// packages).
					if id, ok := n.Key.(*ast.Ident); ok {
						if key, ok := configField(info.Uses[id]); ok {
							set(key, n.Value)
						}
					}
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						key, ok := field(lhs)
						if !ok || ownDefault(key) {
							continue
						}
						var value ast.Expr
						if len(n.Rhs) == len(n.Lhs) && n.Tok == token.ASSIGN {
							value = n.Rhs[i]
						}
						set(key, value)
					}
				case *ast.IncDecStmt:
					if key, ok := field(n.X); ok && !ownDefault(key) {
						s.direct[key] = true
					}
				case *ast.UnaryExpr:
					if key, ok := field(n.X); ok && n.Op == token.AND {
						s.direct[key] = true
					}
				}
				return true
			})
		}
	}
}

// resolve reports whether key is set, following pass-throughs to a direct
// setter.
func (s *setters) resolve(key string, seen map[string]bool) bool {
	if s.direct[key] {
		return true
	}
	if seen[key] {
		return false
	}
	seen[key] = true
	for _, src := range s.copied[key] {
		if s.resolve(src, seen) {
			return true
		}
	}
	return false
}

// configField names obj when it is a field of a configStructs struct.
func configField(obj types.Object) (string, bool) {
	v, ok := obj.(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return "", false
	}
	for _, name := range configStructs[v.Pkg().Path()] {
		tn, ok := v.Pkg().Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == v {
				return fieldKey(v.Pkg().Path(), name, v.Name()), true
			}
		}
	}
	return "", false
}
