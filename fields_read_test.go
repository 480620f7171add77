package repro

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// An unreadField is one struct field that no non-test code outside bench/
// reads, kept on purpose: a row names it ("importpath.Type.Field") and says
// why.
type unreadField struct {
	name, why string
}

// taskTally is why core.TaskCounts keeps fields no product code reads: a
// finished daemon run keeps only this tally, and only tests read it yet.
const taskTally = "daemon tests read a finished run's tally through export_test.go's Snapshot until Info reports it (ROADMAP item 2)"

var unreadFields = []unreadField{
	// Read through the entk aliases of Progress and its parts.
	{"repro/internal/core.Progress.Stages", entkAPI},
	{"repro/internal/core.Progress.Tasks", entkAPI},
	{"repro/internal/core.Progress.Durability", entkAPI},
	{"repro/internal/core.DurabilityStats.RecoveryInfo", entkAPI},
	{"repro/internal/core.DurabilityStats.JournalSeq", entkAPI},
	{"repro/internal/core.DurabilityStats.Snapshots", entkAPI},
	{"repro/internal/core.DurabilityStats.SnapshotFailures", entkAPI},
	{"repro/internal/core.DurabilityStats.CompactedSegments", entkAPI},

	{"repro/internal/journal.SegmentInfo.Size", benchOnly},

	{"repro/internal/stats.LinearFit.Slope", "the least-squares fit the scaling figures will report slopes with (ROADMAP item 9)"},
	{"repro/internal/stats.LinearFit.Intercept", "the least-squares fit the scaling figures will report slopes with (ROADMAP item 9)"},
	{"repro/internal/stats.LinearFit.R2", "the least-squares fit the scaling figures will report slopes with (ROADMAP item 9)"},

	{"repro/internal/core.TaskCounts.Total", taskTally},
	{"repro/internal/core.TaskCounts.Done", taskTally},
	{"repro/internal/core.TaskCounts.Failed", taskTally},
	{"repro/internal/core.TaskCounts.Canceled", taskTally},
	{"repro/internal/core.TaskCounts.Attempts", taskTally},

	{"repro/internal/workload.Spec.Environment", "the task's software environment (paper §II-A): without it entk.Task.Environment would silently do nothing; no built-in kernel reads a variable yet"},
	{"repro/internal/anen.Result.Map", "the AUA prediction over the full grid, the map of Fig 11; the harness reports only its error (RMSE) so far"},
}

// TestEveryFieldIsRead fails on a field, exported or not, of a struct type
// declared in a non-test file of internal/ or entk/ that no non-test file
// outside the frozen bench/ harness reads; cmd/ and examples/ count. A write
// is not a read: every field the target of an assignment, op-assignment or
// ++/-- names on the way to the stored-to location (a and b in x.a.b[i] = v),
// the field appended to in x.f = append(x.f, …), and a composite-literal
// key. Everything else reads the field, and so do a map keyed by its struct
// and an == or != on it, which compare every field, and a promoted field or
// method, which goes through the embedded fields. A field kept on purpose is
// an unreadFields row, which must still name a declared field that has no
// reader.
func TestEveryFieldIsRead(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m := loadModule(t)

	// Fields are keyed by fieldPos: a package's own files refer to its
	// source-checked fields, other packages to its export data.
	read := map[string]bool{}
	var readAll func(types.Type, map[types.Type]bool)
	readAll = func(typ types.Type, seen map[types.Type]bool) {
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch u := typ.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[m.fieldPos(u.Field(i))] = true
				readAll(u.Field(i).Type(), seen)
			}
		case *types.Array:
			readAll(u.Elem(), seen)
		}
	}
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.path, "repro/bench") {
			continue
		}
		written := map[*ast.Ident]bool{}
		// write marks the fields a target names on its way to the
		// stored-to location.
		var write func(ast.Expr)
		write = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				written[e.Sel] = true
				write(e.X)
			case *ast.IndexExpr:
				write(e.X)
			case *ast.StarExpr:
				write(e.X)
			}
		}
		product := map[*token.File]bool{}
		for i, f := range p.files {
			if strings.HasSuffix(p.names[i], "_test.go") {
				continue
			}
			product[m.fset.File(f.Pos())] = true
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for j, lhs := range n.Lhs {
						write(lhs)
						if len(n.Rhs) != len(n.Lhs) {
							continue
						}
						// x.f = append(x.f, …) reads x.f only to extend it.
						if call, ok := n.Rhs[j].(*ast.CallExpr); ok && len(call.Args) > 0 {
							if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && p.info.Uses[id] == types.Universe.Lookup("append") &&
								types.ExprString(ast.Unparen(call.Args[0])) == types.ExprString(ast.Unparen(lhs)) {
								write(call.Args[0])
							}
						}
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.KeyValueExpr:
					// A struct literal's key; a map literal's key that names
					// a field is no field of the map.
					if id, ok := n.Key.(*ast.Ident); ok {
						written[id] = true
					}
				case *ast.SelectorExpr:
					if sel := p.info.Selections[n]; sel != nil {
						typ := sel.Recv()
						for _, idx := range sel.Index()[:len(sel.Index())-1] {
							if ptr, ok := typ.Underlying().(*types.Pointer); ok {
								typ = ptr.Elem()
							}
							f := typ.Underlying().(*types.Struct).Field(idx)
							read[m.fieldPos(f)] = true
							typ = f.Type()
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(p.info.TypeOf(n.X), map[types.Type]bool{})
					}
				case *ast.MapType:
					readAll(p.info.TypeOf(n.Key), map[types.Type]bool{})
				}
				return true
			})
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] && product[m.fset.File(id.Pos())] {
				read[m.fieldPos(v)] = true
			}
		}
	}

	rows := map[string]bool{}
	for _, row := range unreadFields {
		if err := m.resolveField(row.name); err != nil {
			t.Errorf("row %s: %v: delete the row or name what it keeps now", row.name, err)
		}
		if row.why == "" {
			t.Errorf("row %s gives no reason", row.name)
		}
		rows[row.name] = true
	}
	var checked int
	var unread []string
	kept := map[string]bool{}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, "repro/internal/") && p.path != "repro/entk" {
			continue
		}
		for i, f := range p.files {
			if strings.HasSuffix(p.names[i], "_test.go") {
				continue
			}
			owner := map[*ast.StructType]string{} // the type a declaration names
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					if st, ok := n.Type.(*ast.StructType); ok {
						owner[st] = n.Name.Name + "."
					}
				case *ast.StructType:
					st := p.info.TypeOf(n).(*types.Struct)
					for k := 0; k < st.NumFields(); k++ {
						v := st.Field(k)
						if v.Name() == "_" {
							continue // padding, which nothing can read
						}
						checked++
						if read[m.fieldPos(v)] {
							continue
						}
						name := p.path + "." + owner[n] + v.Name()
						if rows[name] {
							kept[name] = true
							continue
						}
						unread = append(unread, fmt.Sprintf("%s:%d: %s", p.names[i], m.fset.Position(v.Pos()).Line, name))
					}
				}
				return true
			})
		}
	}
	t.Logf("%d struct fields checked, %d kept by a row", checked, len(kept))
	for _, row := range unreadFields {
		if !kept[row.name] && m.resolveField(row.name) == nil {
			t.Errorf("row %s names a field that non-test code outside bench/ reads: delete the row", row.name)
		}
	}
	if len(unread) > 0 {
		slices.Sort(unread)
		t.Errorf("%d struct fields have no reader in non-test code outside bench/: delete each with what only "+
			"feeds it, or add an unreadFields row that says why:\n\t%s", len(unread), strings.Join(unread, "\n\t"))
	}
}

// fieldPos is the file and line v is declared on, and its name: the one key
// a field has across the type-checks that see it (export data keeps no
// column).
func (m *module) fieldPos(v *types.Var) string {
	pos := m.fset.Position(v.Pos())
	return fmt.Sprintf("%s:%d.%s", pos.Filename, pos.Line, v.Name())
}

// resolveField fails unless name ("importpath.Type.Field") is a field that a
// struct type declared in a non-test file declares itself.
func (m *module) resolveField(name string) error {
	slash := strings.LastIndex(name, "/") + 1
	dot := slash + strings.Index(name[slash:], ".")
	pkg, err := m.lookup(name[:dot])
	if err != nil {
		return err
	}
	typ, field, _ := strings.Cut(name[dot+1:], ".")
	if tn, ok := pkg.Scope().Lookup(typ).(*types.TypeName); ok && !tn.IsAlias() && !strings.HasSuffix(m.fset.Position(tn.Pos()).Filename, "_test.go") {
		if st, ok := tn.Type().Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i).Name() == field {
					return nil
				}
			}
		}
	}
	return fmt.Errorf("%s does not resolve", name)
}
