package repro

import (
	"fmt"
	"go/ast"
	"go/types"
	"maps"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// A structuralRule is one named question about the non-test source: how many
// times does count match in the files the row reads? Each row holds one of
// the toolkit's "one path per job" contracts in place, so a second path, a
// relay goroutine or a dependency that crept back fails tier-1 with the
// row's reason. A new rule is one row, checked by a mutation it must fail on
// (docs/ci.md).
type structuralRule struct {
	name string
	// in is a directory ("internal/rts/", its subdirectories included), a
	// file, or "" for the whole module; not lists directories or files of it
	// the row skips. Test files are never read.
	in    string
	not   []string
	count counter
	// want is the exact count over the row's files; sites, when set, is
	// instead the exact count in each file, 0 in a file it does not list.
	want  int
	sites map[string]int
	why   string
}

var structuralRules = []structuralRule{
	{
		name:  "no-reporter-assertion",
		count: assertionsTo("Reporter"),
		why: "core.RTS.Stats() is the whole telemetry contract (docs/api.md, \"The RTS contract\"): " +
			"put the field in core.RTSStats instead of type-asserting an RTS to a …Reporter interface",
	},
	{
		name:  "broker-is-a-leaf",
		in:    "internal/broker/",
		count: imports("repro/"),
		why: "the broker imports no other package of this module, so durability — which JournalDir " +
			"and statedb own (docs/recovery.md) — cannot creep back into it",
	},
	{
		name:  "core-queues-carry-values",
		in:    "internal/core/",
		count: usesMatching("repro/internal/msgcodec", `^(Encode|Decode|Append)(TaskUIDs?|SyncFrame(Into)?|SyncAck|TaskResults(Shared)?)$`),
		why: "the engine's in-process queues carry values (broker.Message.Value), so internal/core names " +
			"no codec of the frames they used to carry as bytes (0x01–0x04: pending UIDs, sync frame " +
			"and ack, results); hand the queue the value",
	},
	{
		name:  "one-machine-builder",
		not:   []string{"bench/", "internal/rts/machine.go"},
		count: uses("repro/internal/hpc.NewCluster"),
		why:   "every deployment shape builds its simulated CI through rts.NewMachine; build it there",
	},
	{
		name: "one-completion-channel",
		not:  []string{"bench/", "internal/core/completions.go"},
		// core.TaskResult is an alias of this type.
		count: chansOf("repro/internal/msgcodec.TaskResult"),
		why:   "every RTS hands results back through core.Outbox; it makes no completion channel of its own",
	},
	{
		name:  "one-ledger-add",
		in:    "internal/broker/",
		count: uses("repro/internal/broker.qshard.ledgerAddLocked"),
		want:  1,
		why:   brokerOnePath,
	},
	{
		name:  "one-ledger-remove",
		in:    "internal/broker/",
		count: uses("repro/internal/broker.qshard.ledgerRemoveLocked"),
		want:  1,
		why:   brokerOnePath,
	},
	{
		name:  "one-ready-pop",
		in:    "internal/broker/",
		count: uses("repro/internal/broker.msgDeque.PopFront"),
		want:  1,
		why:   brokerOnePath,
	},
	{
		name:  "one-ready-requeue",
		in:    "internal/broker/",
		count: uses("repro/internal/broker.msgDeque.PushFront"),
		want:  1,
		why:   brokerOnePath,
	},
	{
		name:  "no-lone-append",
		in:    "internal/broker/",
		count: declares("repro/internal/broker.msgDeque.PushBack"),
		why:   brokerOnePath + "; the ready ring appends a batch (PushBackAll), never a lone message",
	},
	{
		name:  "one-store-pull-path",
		in:    "internal/rts/",
		count: uses("repro/internal/rts.store.popShard"),
		want:  1,
		why: "the RTS task store has one pull path (preferred shard, then steal), and a lone scheduler " +
			"drains a one-shard store, so strict FIFO needs no pop of its own",
	},
	{
		name:  "event-bus-waits-on-no-cond",
		in:    "internal/core/events.go",
		count: uses("sync.Cond", "sync.NewCond"),
		why:   "an event subscription is its channel, which the bus sends on; nothing waits on a sync.Cond",
	},
	{
		name:  "composite-starts-no-producer",
		in:    "internal/rts/composite.go",
		count: uses("repro/internal/core.Outbox.Go"),
		why:   "a composite RTS's members deliver into its channel themselves; it relays nothing",
	},
	{
		name:  "one-stage-completion-site",
		in:    "internal/core/",
		count: oneSiteIn("repro/internal/core.wfProcessor.handleResultBatch", "repro/internal/core.wfProcessor.maybeCompleteStage"),
		why:   completionOwner,
	},
	{
		name:  "one-pipeline-completion-site",
		in:    "internal/core/",
		count: oneSiteIn("repro/internal/core.wfProcessor.handleResultBatch", "repro/internal/core.wfProcessor.completePipeline"),
		why:   completionOwner,
	},
	{
		name:  "no-completion-lock",
		in:    "internal/core/",
		count: lockFields("completionMu"),
		why:   completionOwner + "; no lock orders completion",
	},
	{
		name: "no-injected-broker",
		in:   "internal/",
		count: anyOf(
			pointerFields("repro/internal/core.Config", "repro/internal/broker.Broker"),
			importsBy("repro/internal/daemon", "repro/internal/broker"),
		),
		why: "every run owns its broker, as the paper's AppManager owns its messaging (docs/daemon.md): " +
			"a host shares the pilot with its runs, never a broker",
	},
	{
		name:  "goroutine-census",
		in:    "internal/",
		count: goStatements,
		sites: map[string]int{
			"internal/broker/queue.go":      1, // a push consumer's loop: Consumer.wg
			"internal/core/autotune.go":     1, // the controller: tunerWG
			"internal/core/completions.go":  1, // Outbox.Go: the producers Stop waits for
			"internal/core/events.go":       0, // the bus sends on each subscription's channel
			"internal/core/execmanager.go":  4, // Emgr, heartbeat (hands lost tasks to Dequeue), a callback per RTS incarnation: wg
			"internal/core/recovery.go":     1, // the snapshot writer: snapWG
			"internal/core/run.go":          1, // supervise: Run.Wait's finished channel
			"internal/core/synchronizer.go": 1, // wg
			"internal/core/wfprocessor.go":  2, // enqueue and dequeue loops (the one owner of completion): wg
			"internal/daemon/daemon.go":     2, // admission, one per hosted run: wg
			"internal/daemon/server.go":     2, // accept, one per connection: wg
			"internal/experiments/fig6.go":  4, // sampler, producers, consumers: the figure's own wait groups
			"internal/hpc/hpc.go":           2, // a job's queue wait and walltime watchdog: wg
			"internal/remoterts/agent.go":   4, // accept: acceptWG; a session's three loops: no wait group
			"internal/remoterts/events.go":  4, // accept, one per peer: wg; a peer's release, a stream's reader: no wait group
			"internal/rts/agent.go":         2, // scheduler loops, executors (each books its own stager): agent.wg
			"internal/rts/composite.go":     0, // members deliver into its channel themselves
			"internal/rts/pool.go":          2, // feeder, router: wg
			"internal/rts/rts.go":           0, // bootstrap and pilot watch run on Outbox.Go
			"internal/transport/conn.go":    3, // writer, reader, heartbeat: wg
		},
		why: "every goroutine a product package starts is listed, so a new one is a reviewed line " +
			"here: say what stops it and what waits for it",
	},
}

// completionOwner is why stage and pipeline completion have one call site.
const completionOwner = "the dequeue loop is the one goroutine that decides a stage or pipeline is over " +
	"(docs/api.md, \"Who settles a stage\"): hand it a done message that names the stage " +
	"(AppManager.settle) instead of deciding elsewhere"

// brokerOnePath is why the broker's ledger and ready-ring operations each
// have one call site.
const brokerOnePath = "the broker publishes, pops and settles through one implementation each, a single " +
	"message being a batch of one: fold a second path into the batch one"

// A counter is what a row counts: match reports how many times node n counts.
// resolve, when set, fails once something the row names — a package, type,
// function or method — no longer exists, so a rename cannot make the row
// count nothing.
type counter struct {
	what    string
	match   func(info *types.Info, n ast.Node) int
	resolve func(m *module) error
}

// uses counts the identifiers that refer to one of the named objects — a
// call, a method value, a type in a declaration alike. A name is
// "importpath.Name" or "importpath.Type.Method".
func uses(names ...string) counter {
	return counter{
		what: "uses of " + strings.Join(names, ", "),
		match: func(info *types.Info, n ast.Node) int {
			if id, ok := n.(*ast.Ident); ok && slices.Contains(names, objectName(info.Uses[id])) {
				return 1
			}
			return 0
		},
		resolve: func(m *module) error {
			for _, name := range names {
				if err := m.resolve(name); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

// usesMatching counts the identifiers that refer to a package-level object
// of pkg whose name matches pattern.
func usesMatching(pkg, pattern string) counter {
	re := regexp.MustCompile(pattern)
	return counter{
		what: "uses of " + pkg + "." + pattern,
		match: func(info *types.Info, n ast.Node) int {
			if id, ok := n.(*ast.Ident); ok {
				if obj := info.Uses[id]; obj != nil && objectName(obj) == pkg+"."+obj.Name() && re.MatchString(obj.Name()) {
					return 1
				}
			}
			return 0
		},
		resolve: func(m *module) error {
			p, err := m.lookup(pkg)
			if err != nil {
				return err
			}
			if !slices.ContainsFunc(p.Scope().Names(), re.MatchString) {
				return fmt.Errorf("no object of %s matches %s", pkg, pattern)
			}
			return nil
		},
	}
}

// declares counts declarations of the named method, one that must not exist;
// its type must.
func declares(name string) counter {
	typ := name[:strings.LastIndex(name, ".")]
	return counter{
		what: "declarations of " + name,
		match: func(info *types.Info, n ast.Node) int {
			if fd, ok := n.(*ast.FuncDecl); ok && objectName(info.Defs[fd.Name]) == name {
				return 1
			}
			return 0
		},
		resolve: func(m *module) error { return m.resolve(typ) },
	}
}

var goStatements = counter{
	what: "go statements",
	match: func(_ *types.Info, n ast.Node) int {
		if _, ok := n.(*ast.GoStmt); ok {
			return 1
		}
		return 0
	},
}

// oneSiteIn counts how far the uses of name are from exactly one, inside the
// function or method caller: every use in another function counts, and so
// does each use in caller past the first, or the lack of any (reported at
// caller's declaration).
func oneSiteIn(caller, name string) counter {
	return counter{
		what: "uses of " + name + " other than one in " + caller,
		match: func(info *types.Info, n ast.Node) int {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return 0
			}
			k := 0
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && objectName(info.Uses[id]) == name {
					k++
				}
				return true
			})
			if objectName(info.Defs[fd.Name]) == caller {
				return max(k-1, 1-k)
			}
			return k
		},
		resolve: func(m *module) error {
			if err := m.resolve(caller); err != nil {
				return err
			}
			return m.resolve(name)
		},
	}
}

// lockFields counts struct fields called name whose type is a lock: one with
// a Lock method, on itself or its pointer.
func lockFields(name string) counter {
	return counter{
		what: "lock fields called " + name,
		match: func(info *types.Info, n ast.Node) int {
			f, ok := n.(*ast.Field)
			if !ok {
				return 0
			}
			count := 0
			for _, id := range f.Names {
				if v, ok := info.Defs[id].(*types.Var); ok && id.Name == name && v.IsField() {
					if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(v.Type()), true, v.Pkg(), "Lock"); obj != nil {
						count++
					}
				}
			}
			return count
		},
	}
}

// imports counts import declarations of a path starting with prefix.
func imports(prefix string) counter {
	return counter{
		what: "imports of " + prefix + "...",
		match: func(_ *types.Info, n ast.Node) int {
			if spec, ok := n.(*ast.ImportSpec); ok {
				if path, _ := strconv.Unquote(spec.Path.Value); strings.HasPrefix(path, prefix) {
					return 1
				}
			}
			return 0
		},
	}
}

// importsBy counts the imports of path by the files of package pkg.
func importsBy(pkg, path string) counter {
	return counter{
		what: "imports of " + path + " by " + pkg,
		match: func(info *types.Info, n ast.Node) int {
			if spec, ok := n.(*ast.ImportSpec); ok {
				if p, _ := strconv.Unquote(spec.Path.Value); p == path {
					if name := info.PkgNameOf(spec); name != nil && name.Pkg().Path() == pkg {
						return 1
					}
				}
			}
			return 0
		},
		resolve: func(m *module) error {
			if _, err := m.lookup(pkg); err != nil {
				return err
			}
			_, err := m.lookup(path)
			return err
		},
	}
}

// pointerFields counts the fields of the struct type typ whose type is a
// pointer to the named type elem.
func pointerFields(typ, elem string) counter {
	return counter{
		what: "fields of " + typ + " of type *" + elem,
		match: func(info *types.Info, n ast.Node) int {
			spec, ok := n.(*ast.TypeSpec)
			if !ok || objectName(info.Defs[spec.Name]) != typ {
				return 0
			}
			st, ok := info.Defs[spec.Name].Type().Underlying().(*types.Struct)
			if !ok {
				return 0
			}
			count := 0
			for i := 0; i < st.NumFields(); i++ {
				if p, ok := st.Field(i).Type().(*types.Pointer); ok {
					if n, ok := types.Unalias(p.Elem()).(*types.Named); ok && objectName(n.Obj()) == elem {
						count++
					}
				}
			}
			return count
		},
		resolve: func(m *module) error {
			if err := m.resolve(typ); err != nil {
				return err
			}
			return m.resolve(elem)
		},
	}
}

// anyOf counts what each of cs counts, added up.
func anyOf(cs ...counter) counter {
	what := make([]string, len(cs))
	for i, c := range cs {
		what[i] = c.what
	}
	return counter{
		what: strings.Join(what, " and "),
		match: func(info *types.Info, n ast.Node) int {
			k := 0
			for _, c := range cs {
				k += c.match(info, n)
			}
			return k
		},
		resolve: func(m *module) error {
			for _, c := range cs {
				if c.resolve != nil {
					if err := c.resolve(m); err != nil {
						return err
					}
				}
			}
			return nil
		},
	}
}

// assertionsTo counts type assertions and type-switch cases to a named type
// (or a pointer to one) whose name ends in suffix.
func assertionsTo(suffix string) counter {
	named := func(info *types.Info, e ast.Expr) bool {
		t := info.TypeOf(e)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := types.Unalias(t).(*types.Named)
		return ok && strings.HasSuffix(n.Obj().Name(), suffix)
	}
	return counter{
		what: "assertions to a …" + suffix,
		match: func(info *types.Info, n ast.Node) int {
			count := 0
			switch n := n.(type) {
			case *ast.TypeAssertExpr:
				if n.Type != nil && named(info, n.Type) {
					count++
				}
			case *ast.TypeSwitchStmt:
				for _, clause := range n.Body.List {
					for _, e := range clause.(*ast.CaseClause).List {
						if named(info, e) {
							count++
						}
					}
				}
			}
			return count
		},
	}
}

// chansOf counts make(chan T) calls whose element type T contains the named
// type: is it, or is built of it by a type literal — a pointer, slice,
// array, map, channel or struct. Another named type is opaque.
func chansOf(name string) counter {
	var contains func(t types.Type) bool
	contains = func(t types.Type) bool {
		switch t := types.Unalias(t).(type) {
		case *types.Named:
			return objectName(t.Obj()) == name
		case *types.Pointer:
			return contains(t.Elem())
		case *types.Slice:
			return contains(t.Elem())
		case *types.Array:
			return contains(t.Elem())
		case *types.Chan:
			return contains(t.Elem())
		case *types.Map:
			return contains(t.Key()) || contains(t.Elem())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if contains(t.Field(i).Type()) {
					return true
				}
			}
		}
		return false
	}
	return counter{
		what: "channels made of " + name,
		match: func(info *types.Info, n ast.Node) int {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return 0
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || info.Uses[id] != types.Universe.Lookup("make") {
				return 0
			}
			if ch, ok := info.TypeOf(call.Args[0]).Underlying().(*types.Chan); ok && contains(ch.Elem()) {
				return 1
			}
			return 0
		},
		resolve: func(m *module) error { return m.resolve(name) },
	}
}

// objectName names obj as a row does: "importpath.Name" for a package-level
// object, "importpath.Type.Method" for a method; "" for anything else.
func objectName(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Origin().Signature().Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			n, ok := types.Unalias(t).(*types.Named)
			if !ok {
				return ""
			}
			return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
		}
	} else if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// lookup returns the package at path: type-checked from source when it is
// the module's, from export data otherwise.
func (m *module) lookup(path string) (*types.Package, error) {
	for _, p := range m.pkgs {
		if p.path == path {
			return p.types, nil
		}
	}
	return m.imp.Import(path)
}

// resolve fails unless the named object (see objectName) is declared in a
// non-test file and is not an alias.
func (m *module) resolve(name string) error {
	slash := strings.LastIndex(name, "/") + 1
	dot := slash + strings.Index(name[slash:], ".")
	pkg, err := m.lookup(name[:dot])
	if err != nil {
		return err
	}
	typ, method, _ := strings.Cut(name[dot+1:], ".")
	obj := pkg.Scope().Lookup(typ)
	if obj != nil && method != "" {
		obj, _, _ = types.LookupFieldOrMethod(obj.Type(), true, pkg, method)
	}
	if objectName(obj) != name || strings.HasSuffix(m.fset.Position(obj.Pos()).Filename, "_test.go") {
		return fmt.Errorf("%s does not resolve", name)
	}
	if tn, ok := obj.(*types.TypeName); ok && tn.IsAlias() {
		// A use of the type it stands for would not count.
		return fmt.Errorf("%s is an alias of %s", name, tn.Type())
	}
	return nil
}

// reads reports whether the row reads the module-relative file name.
func (r *structuralRule) reads(name string) bool {
	under := func(scope string) bool {
		return name == scope || strings.HasSuffix(scope, "/") && strings.HasPrefix(name, scope)
	}
	return !strings.HasSuffix(name, "_test.go") && (r.in == "" || under(r.in)) && !slices.ContainsFunc(r.not, under)
}

// TestStructuralRules holds every structuralRules row over the type-checked,
// non-test source of the module: the count must be exact, and whatever a row
// names must still exist.
func TestStructuralRules(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m := loadModule(t)
	for _, rule := range structuralRules {
		t.Run(rule.name, func(t *testing.T) {
			if rule.count.resolve != nil {
				if err := rule.count.resolve(m); err != nil {
					t.Fatalf("%v, so the row counts nothing: name what it guards now", err)
				}
			}
			found := map[string][]string{} // file → "file:line" of each match
			read := map[string]bool{}
			for _, p := range m.pkgs {
				for i, f := range p.files {
					if !rule.reads(p.names[i]) {
						continue
					}
					read[p.names[i]] = true
					ast.Inspect(f, func(n ast.Node) bool {
						for k := rule.count.match(p.info, n); k > 0; k-- {
							at := fmt.Sprintf("%s:%d", p.names[i], m.fset.Position(n.Pos()).Line)
							found[p.names[i]] = append(found[p.names[i]], at)
						}
						return true
					})
				}
			}
			if len(read) == 0 {
				t.Fatalf("the row reads no file: %q does not exist", rule.in)
			}
			if rule.sites == nil {
				var at []string
				for _, sites := range found {
					at = append(at, sites...)
				}
				if len(at) != rule.want {
					slices.Sort(at)
					t.Errorf("%d %s, want %d: %s\n\t%s", len(at), rule.count.what, rule.want, rule.why, strings.Join(at, "\n\t"))
				}
				return
			}
			for _, name := range slices.Sorted(maps.Keys(rule.sites)) {
				if !read[name] {
					t.Errorf("%s is listed with %d %s but the row reads no such file", name, rule.sites[name], rule.count.what)
				}
			}
			for _, name := range slices.Sorted(maps.Keys(read)) {
				if got, want := len(found[name]), rule.sites[name]; got != want {
					t.Errorf("%s: %d %s, want %d: %s\n\t%s", name, got, rule.count.what, want, rule.why, strings.Join(found[name], "\n\t"))
				}
			}
		})
	}
}
