package appjson

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/core"
)

const validDoc = `{
  "resource": {"name": "titan", "cores": 64, "walltime_s": 7200},
  "task_retries": 2,
  "pipelines": [{
    "name": "md",
    "stages": [{
      "name": "sim",
      "tasks": [{
        "name": "replica", "executable": "mdrun", "duration_s": 600,
        "cores": 1, "copies": 4,
        "tags": {"resource": "titan"},
        "input_staging": [
          {"source": "topol.tpr", "target": "topol.tpr", "action": "copy", "bytes": 563200},
          {"source": "conf.gro", "target": "conf.gro", "action": "link"}
        ]
      }]
    }, {
      "name": "analysis",
      "tasks": [{"name": "agg", "executable": "sleep", "duration_s": 30}]
    }]
  }]
}`

func TestParseValid(t *testing.T) {
	app, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	if app.Resource.Name != "titan" || app.Resource.Cores != 64 {
		t.Fatalf("resource: %+v", app.Resource)
	}
	if app.Walltime() != 2*time.Hour {
		t.Fatalf("walltime = %v", app.Walltime())
	}
	if app.TaskRetries != 2 {
		t.Fatalf("retries = %d", app.TaskRetries)
	}
}

func TestBuildMaterializesPST(t *testing.T) {
	app, err := Parse([]byte(validDoc))
	if err != nil {
		t.Fatal(err)
	}
	pipes, total, err := app.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(pipes) != 1 || total != 5 {
		t.Fatalf("pipes=%d total=%d", len(pipes), total)
	}
	stages := pipes[0].Stages()
	if len(stages) != 2 {
		t.Fatalf("stages = %d", len(stages))
	}
	if stages[0].TaskCount() != 4 { // copies: 4
		t.Fatalf("sim tasks = %d, want 4", stages[0].TaskCount())
	}
	task := stages[0].Tasks()[0]
	if task.Executable != "mdrun" || task.Duration != 600*time.Second {
		t.Fatalf("task: %+v", task)
	}
	if task.Tags["resource"] != "titan" {
		t.Fatalf("tags = %v", task.Tags)
	}
	if len(task.InputStaging) != 2 {
		t.Fatalf("staging = %d entries", len(task.InputStaging))
	}
	if task.InputStaging[0].Action != core.StagingCopy || task.InputStaging[0].Bytes != 563200 {
		t.Fatalf("staging[0]: %+v", task.InputStaging[0])
	}
	if task.InputStaging[1].Action != core.StagingLink {
		t.Fatalf("staging[1]: %+v", task.InputStaging[1])
	}
	if err := pipes[0].Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"not json", `{`},
		{"no resource", `{"pipelines":[{"name":"p","stages":[{"name":"s","tasks":[{"executable":"sleep"}]}]}]}`},
		{"zero cores", `{"resource":{"name":"titan","cores":0,"walltime_s":60},"pipelines":[{"stages":[{"tasks":[{"executable":"sleep"}]}]}]}`},
		{"zero walltime", `{"resource":{"name":"titan","cores":4},"pipelines":[{"stages":[{"tasks":[{"executable":"sleep"}]}]}]}`},
		{"no pipelines", `{"resource":{"name":"titan","cores":4,"walltime_s":60},"pipelines":[]}`},
		{"empty stage", `{"resource":{"name":"titan","cores":4,"walltime_s":60},"pipelines":[{"stages":[{"tasks":[]}]}]}`},
		{"no executable", `{"resource":{"name":"titan","cores":4,"walltime_s":60},"pipelines":[{"stages":[{"tasks":[{"name":"x"}]}]}]}`},
		{"bad action", `{"resource":{"name":"titan","cores":4,"walltime_s":60},"pipelines":[{"stages":[{"tasks":[{"executable":"sleep","input_staging":[{"source":"a","action":"beam"}]}]}]}]}`},
		{"negative duration", `{"resource":{"name":"titan","cores":4,"walltime_s":60},"pipelines":[{"stages":[{"tasks":[{"executable":"sleep","duration_s":-1}]}]}]}`},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.doc)); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

func TestDefaultCopiesIsOne(t *testing.T) {
	doc := `{"resource":{"name":"comet","cores":4,"walltime_s":60},
	  "pipelines":[{"name":"p","stages":[{"name":"s","tasks":[{"name":"t","executable":"sleep"}]}]}]}`
	app, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	_, total, err := app.Build()
	if err != nil {
		t.Fatal(err)
	}
	if total != 1 {
		t.Fatalf("total = %d", total)
	}
}

func TestDefaultStagingActionIsCopy(t *testing.T) {
	if action("") != core.StagingCopy {
		t.Fatal("empty action should default to copy")
	}
	if action("move") != core.StagingMove || action("transfer") != core.StagingTransfer {
		t.Fatal("action mapping broken")
	}
}

func TestAfterDependenciesWired(t *testing.T) {
	doc := `{"resource":{"name":"comet","cores":4,"walltime_s":60},
	  "pipelines":[
	    {"name":"sim","stages":[{"name":"s","tasks":[{"name":"t","executable":"sleep"}]}]},
	    {"name":"post","after":["sim"],"stages":[{"name":"s","tasks":[{"name":"t","executable":"sleep"}]}]}
	  ]}`
	app, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	pipes, _, err := app.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(pipes) != 2 {
		t.Fatalf("pipelines = %d", len(pipes))
	}
	preds := pipes[1].Predecessors()
	if len(preds) != 1 || preds[0] != pipes[0] {
		t.Fatalf("post predecessors = %v", preds)
	}
	if len(pipes[0].Predecessors()) != 0 {
		t.Fatal("sim should have no predecessors")
	}
}

func TestAfterValidation(t *testing.T) {
	cases := []struct{ name, doc string }{
		{"unknown dep", `{"resource":{"name":"comet","cores":4,"walltime_s":60},
		  "pipelines":[{"name":"p","after":["ghost"],"stages":[{"name":"s","tasks":[{"name":"t","executable":"sleep"}]}]}]}`},
		{"self dep", `{"resource":{"name":"comet","cores":4,"walltime_s":60},
		  "pipelines":[{"name":"p","after":["p"],"stages":[{"name":"s","tasks":[{"name":"t","executable":"sleep"}]}]}]}`},
		{"duplicate names", `{"resource":{"name":"comet","cores":4,"walltime_s":60},
		  "pipelines":[
		    {"name":"p","stages":[{"name":"s","tasks":[{"name":"t","executable":"sleep"}]}]},
		    {"name":"p","after":["p"],"stages":[{"name":"s","tasks":[{"name":"t","executable":"sleep"}]}]}
		  ]}`},
		{"unnamed with after", `{"resource":{"name":"comet","cores":4,"walltime_s":60},
		  "pipelines":[
		    {"name":"","stages":[{"name":"s","tasks":[{"name":"t","executable":"sleep"}]}]},
		    {"name":"q","after":[""],"stages":[{"name":"s","tasks":[{"name":"t","executable":"sleep"}]}]}
		  ]}`},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.doc)); err == nil {
			t.Fatalf("%s: accepted", c.name)
		}
	}
}

func TestTransferProtocolRoundTrip(t *testing.T) {
	doc := `{"resource":{"name":"comet","cores":4,"walltime_s":60},
	  "pipelines":[{"name":"p","stages":[{"name":"s","tasks":[
	    {"name":"t","executable":"sleep","output_staging":[
	      {"source":"out.h5","target":"archive:/out.h5","action":"transfer","bytes":1048576,"protocol":"globus"}
	    ]}
	  ]}]}]}`
	app, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	pipes, _, err := app.Build()
	if err != nil {
		t.Fatal(err)
	}
	dirs := pipes[0].Stages()[0].Tasks()[0].OutputStaging
	if len(dirs) != 1 || dirs[0].Protocol != "globus" || dirs[0].Action != core.StagingTransfer {
		t.Fatalf("directives = %+v", dirs)
	}
}

func TestUnknownProtocolRejected(t *testing.T) {
	doc := `{"resource":{"name":"comet","cores":4,"walltime_s":60},
	  "pipelines":[{"name":"p","stages":[{"name":"s","tasks":[
	    {"name":"t","executable":"sleep","input_staging":[
	      {"source":"a","target":"b","action":"transfer","protocol":"pigeon"}
	    ]}
	  ]}]}]}`
	if _, err := Parse([]byte(doc)); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestEnvironmentRoundTrip(t *testing.T) {
	doc := `{"resource":{"name":"comet","cores":4,"walltime_s":60},
	  "pipelines":[{"name":"p","stages":[{"name":"s","tasks":[
	    {"name":"t","executable":"sleep","environment":{"OMP_NUM_THREADS":"8"}}
	  ]}]}]}`
	app, err := Parse([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	pipes, _, err := app.Build()
	if err != nil {
		t.Fatal(err)
	}
	env := pipes[0].Stages()[0].Tasks()[0].Environment
	if env["OMP_NUM_THREADS"] != "8" {
		t.Fatalf("environment = %v", env)
	}
}

func TestShippedExampleAppParses(t *testing.T) {
	raw, err := os.ReadFile("../../cmd/entk-run/example-app.json")
	if err != nil {
		t.Fatal(err)
	}
	app, err := Parse(raw)
	if err != nil {
		t.Fatal(err)
	}
	pipes, total, err := app.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(pipes) != 2 || total != 18 {
		t.Fatalf("example app: %d pipelines / %d tasks, want 2 / 18", len(pipes), total)
	}
	// The archive pipeline depends on the ensemble-md pipeline.
	if preds := pipes[1].Predecessors(); len(preds) != 1 || preds[0] != pipes[0] {
		t.Fatalf("archive predecessors = %v", preds)
	}
}

// Build's UIDs and copy names are identity across processes (a resumed run
// matches journaled states by them), so they are held to the fmt verbs they
// were first written with — including positions wider than the pad.
func TestBuildUIDsAndNamesAreGolden(t *testing.T) {
	app := App{Resource: Resource{Name: "titan", Cores: 1, WalltimeS: 60}}
	for pi := 0; pi < 2; pi++ {
		p := Pipeline{Name: fmt.Sprintf("p%d", pi)}
		for si := 0; si < 2; si++ {
			p.Stages = append(p.Stages, Stage{Name: "s", Tasks: []Task{
				{Name: "first", Executable: "sleep", Copies: 3},
				{Name: "a-task-name-longer-than-the-stack-buffer-it-is-formatted-in", Executable: "sleep"},
			}})
		}
		app.Pipelines = append(app.Pipelines, p)
	}
	pipes, total, err := app.Build()
	if err != nil {
		t.Fatal(err)
	}
	if total != 16 {
		t.Fatalf("built %d tasks, want 16", total)
	}
	for pi, p := range pipes {
		if want := fmt.Sprintf("pipeline.%03d", pi); p.UID != want {
			t.Errorf("pipeline UID %q, want %q", p.UID, want)
		}
		for si, s := range p.Stages() {
			if want := fmt.Sprintf("stage.%03d.%03d", pi, si); s.UID != want {
				t.Errorf("stage UID %q, want %q", s.UID, want)
			}
			for ti, task := range s.Tasks() {
				if want := fmt.Sprintf("task.%03d.%03d.%05d", pi, si, ti); task.UID != want {
					t.Errorf("task UID %q, want %q", task.UID, want)
				}
				name, c := "first", ti
				if ti == 3 {
					name, c = "a-task-name-longer-than-the-stack-buffer-it-is-formatted-in", 0
				}
				if want := fmt.Sprintf("%s-%03d", name, c); task.Name != want {
					t.Errorf("task name %q, want %q", task.Name, want)
				}
				if task.MaxRetries != -1 {
					t.Errorf("task %s MaxRetries %d, want -1 (the application's budget)", task.UID, task.MaxRetries)
				}
			}
		}
	}
	for _, tc := range []struct {
		kind string
		pos  []int
		want string
	}{
		{"pipeline", []int{999}, "pipeline.999"},
		{"pipeline", []int{1000}, "pipeline.1000"},
		{"stage", []int{12, 1234}, "stage.012.1234"},
		{"task", []int{0, 0, 99999}, "task.000.000.99999"},
		{"task", []int{1000, 1000, 100000}, "task.1000.1000.100000"},
	} {
		if got := structuralUID(tc.kind, tc.pos...); got != tc.want {
			t.Errorf("structuralUID(%s, %v) = %q, want %q", tc.kind, tc.pos, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { structuralUID("task", 1, 2, 3) }); n != 1 {
		t.Errorf("structuralUID allocates %v times, want 1 (the string)", n)
	}
	if got, want := copyName("t", 1000), "t-1000"; got != want {
		t.Errorf("copyName = %q, want %q", got, want)
	}
}
