package repro

import (
	"fmt"
	"go/ast"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// An unusedExport is one exported function or method that no non-test code
// outside bench/ uses, kept on purpose: a row names it ("importpath.Name" or
// "importpath.Type.Method", as the structural rules do) and says why.
type unusedExport struct {
	name, why string
}

// benchOnly is why an export whose one caller is the frozen bench/ harness
// stays until that harness reads the run's stats tree instead (ROADMAP item
// 4 (B)).
const benchOnly = "bench/ reads it, and bench/ is frozen until it reads one stats tree instead (ROADMAP item 4 (B))"

// otherPackageTests is why an export only tests call stays: the tests are
// another package's, which a method in export_test.go would not reach.
const otherPackageTests = "tests of another package call it (an export_test.go serves only its own package's tests): "

// entkAPI is why an entk export no example or binary reaches stays: entk is
// the toolkit's library surface, and applications outside this module call
// it; entk's tests hold its contract.
const entkAPI = "entk library surface for applications outside this module; entk's tests hold its contract"

var unusedExports = []unusedExport{
	{"repro/internal/journal.ListSegments", benchOnly},
	{"repro/internal/journal.OpenDir", benchOnly},
	{"repro/internal/saga.NewClusterAdapter", benchOnly},
	{"repro/internal/broker.Broker.Queues", benchOnly},
	{"repro/internal/broker.Broker.TotalStats", benchOnly},
	{"repro/internal/core.AppManager.Broker", benchOnly},
	{"repro/internal/core.AppManager.RTSRestarts", benchOnly},
	{"repro/internal/daemon.Daemon.PoolClaimed", benchOnly},
	{"repro/internal/statedb.WriteSnapshot", benchOnly},
	{"repro/internal/statedb.DB.SnapshotEntries", benchOnly},
	{"repro/internal/msgcodec.Format.EncodeStateRec", benchOnly},
	{"repro/internal/msgcodec.Format.EncodeSyncFrame", benchOnly},
	{"repro/internal/msgcodec.Format.EncodeSyncAck", benchOnly},
	{"repro/internal/msgcodec.Format.EncodeTaskUIDs", benchOnly},
	{"repro/internal/msgcodec.Format.EncodeTaskResults", benchOnly},
	{"repro/internal/transport.Conn.Stats", benchOnly},
	{"repro/internal/rts.FastModel", benchOnly},

	{"repro/internal/vclock.NewManual", otherPackageTests + "the hand-advanced test clock of six packages' tests"},
	{"repro/internal/vclock.Manual.Advance", otherPackageTests + "the hand-advanced test clock of six packages' tests"},
	{"repro/internal/vclock.Manual.Pending", otherPackageTests + "the hand-advanced test clock of six packages' tests"},
	{"repro/internal/stats.FitLine", "the least-squares fit the scaling figures will report slopes with (ROADMAP item 9)"},

	{"repro/internal/broker.Broker.Get", otherPackageTests + "the regression-gated BenchmarkBrokerPublishConsume times a publish, Get and Ack"},
	{"repro/internal/experiments.Fig10LiveOne", otherPackageTests + "the regression-gated BenchmarkAblationAutotune times one knob setting each"},
	{"repro/internal/core.AppManager.LiveTuning", otherPackageTests + "entk's autotune tests steer the knobs of a running application"},
	{"repro/internal/rts.Composite.Members", otherPackageTests + "remoterts's RTS contract test merges a router's member stats"},
	{"repro/internal/rts.Pool.HoldUntilQueued", otherPackageTests + "the daemon's fairness tests backlog every tenant before dispatch"},
	{"repro/internal/rts.Pool.DispatchTrace", otherPackageTests + "the daemon's fairness tests read the dispatch order"},

	{"repro/entk.Client.Attach", entkAPI},
	{"repro/entk.Client.List", entkAPI},
	{"repro/entk.RunRef.Cancel", entkAPI},
	{"repro/entk.RunRef.Pause", entkAPI},
	{"repro/entk.RunRef.Resume", entkAPI},
	{"repro/entk.Run.Done", entkAPI},
	{"repro/entk.Run.Cancel", entkAPI},
	{"repro/entk.Run.Events", entkAPI},
	{"repro/entk.Run.Subscribe", entkAPI},
	{"repro/entk.Resume", entkAPI},
	{"repro/entk.AppManager.Nudge", entkAPI},
	{"repro/entk.CIs", entkAPI},
}

// TestEveryExportIsUsed fails on an exported function or method, declared in
// a non-test file of internal/ or entk/, that no non-test file outside the
// frozen bench/ harness uses; cmd/ and examples/ count. A method is used
// also when its receiver type implements an interface that non-test code
// uses and that declares the method — core.RTS, heap.Interface, error — and
// fmt.Stringer and the Unwrap interface count as used, since fmt's verbs
// call String and errors.Is and errors.As call Unwrap. An export only
// its package's tests call belongs in that package's export_test.go; one
// kept on purpose is an unusedExports row, which must still name a declared,
// unused export.
func TestEveryExportIsUsed(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m := loadModule(t)

	// Objects are keyed by objectName: a package's own files refer to its
	// source-checked objects, other packages to its export data.
	used := map[string]bool{}
	ifaces := map[string]*types.Interface{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[types.TypeString(it, nil)] = it
		}
	}
	fmtPkg, err := m.imp.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	addIface(fmtPkg.Scope().Lookup("Stringer").Type())
	// errors.Is and errors.As unwrap through this one.
	errType := types.Universe.Lookup("error").Type()
	addIface(types.NewInterfaceType([]*types.Func{
		types.NewFunc(0, nil, "Unwrap", types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(0, nil, "", errType)), false)),
	}, nil).Complete())
	for _, p := range m.pkgs {
		if strings.HasPrefix(p.path, "repro/bench") {
			continue
		}
		for i, f := range p.files {
			if strings.HasSuffix(p.names[i], "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if name := objectName(p.info.Uses[id]); name != "" {
						used[name] = true
					}
				}
				// Every interface a value is held as, passed as or returned
				// as.
				if e, ok := n.(ast.Expr); ok {
					if t := p.info.TypeOf(e); t != nil {
						addIface(t)
						if sig, ok := t.Underlying().(*types.Signature); ok {
							for _, tup := range []*types.Tuple{sig.Params(), sig.Results()} {
								for j := 0; j < tup.Len(); j++ {
									addIface(tup.At(j).Type())
									if s, ok := tup.At(j).Type().(*types.Slice); ok {
										addIface(s.Elem())
									}
								}
							}
						}
					}
				}
				return true
			})
		}
	}
	// satisfies reports whether fn's receiver type implements a used
	// interface that declares fn. Methods match by name and arity, since the
	// interface and the receiver may come from different type-checks.
	satisfies := func(fn *types.Func) bool {
		recv := fn.Signature().Recv().Type()
		if p, ok := recv.(*types.Pointer); ok {
			recv = p.Elem()
		}
		mset := types.NewMethodSet(types.NewPointer(recv))
		has := func(m *types.Func) bool {
			want := m.Signature()
			for k := 0; k < mset.Len(); k++ {
				got := mset.At(k).Obj().(*types.Func).Signature()
				if mset.At(k).Obj().Name() == m.Name() && got.Params().Len() == want.Params().Len() && got.Results().Len() == want.Results().Len() {
					return true
				}
			}
			return false
		}
		for _, it := range ifaces {
			declares, all := false, true
			for k := 0; k < it.NumMethods(); k++ {
				declares = declares || it.Method(k).Name() == fn.Name()
				all = all && has(it.Method(k))
			}
			if declares && all {
				return true
			}
		}
		return false
	}

	rows := map[string]bool{}
	for _, row := range unusedExports {
		if err := m.resolve(row.name); err != nil {
			t.Errorf("row %s: %v: delete the row or name what it keeps now", row.name, err)
		}
		if row.why == "" {
			t.Errorf("row %s gives no reason", row.name)
		}
		rows[row.name] = true
	}
	var checked int
	var unused []string
	kept := map[string]bool{}
	for _, p := range m.pkgs {
		if !strings.HasPrefix(p.path, "repro/internal/") && p.path != "repro/entk" {
			continue
		}
		for i, f := range p.files {
			if strings.HasSuffix(p.names[i], "_test.go") {
				continue
			}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := p.info.Defs[fd.Name].(*types.Func)
				checked++
				name := objectName(fn)
				if used[name] || fd.Recv != nil && satisfies(fn) {
					continue
				}
				if rows[name] {
					kept[name] = true
					continue
				}
				unused = append(unused, fmt.Sprintf("%s:%d: %s", p.names[i], m.fset.Position(fd.Pos()).Line, name))
			}
		}
	}
	t.Logf("%d exported functions and methods checked, %d kept by a row", checked, len(kept))
	for _, row := range unusedExports {
		if !kept[row.name] && m.resolve(row.name) == nil {
			t.Errorf("row %s names an export that non-test code outside bench/ uses: delete the row", row.name)
		}
	}
	if len(unused) > 0 {
		slices.Sort(unused)
		t.Errorf("%d exports have no user in non-test code outside bench/: delete each, move it to its "+
			"package's export_test.go when only that package's tests use it, or add an unusedExports row that says why:\n\t%s",
			len(unused), strings.Join(unused, "\n\t"))
	}
}
