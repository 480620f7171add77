// Package appjson defines the JSON application-description format consumed
// by cmd/entk-run: a portable, serializable encoding of the PST model plus
// the resource request, analogous to EnTK's dictionary-based task
// descriptions.
package appjson

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
)

// App is the root document.
type App struct {
	Resource    Resource   `json:"resource"`
	TaskRetries int        `json:"task_retries"`
	Seed        int64      `json:"seed"`
	Pipelines   []Pipeline `json:"pipelines"`
}

// Resource is the CI acquisition request.
type Resource struct {
	Name      string `json:"name"`
	Cores     int    `json:"cores"`
	GPUs      int    `json:"gpus"`
	WalltimeS int    `json:"walltime_s"`
}

// Pipeline is one PST pipeline. After lists the names of pipelines that
// must finish before this one starts — the JSON encoding of the paper's
// "dependencies among groups of pipelines" (§II-B1). When any pipeline uses
// After, pipeline names must be unique.
type Pipeline struct {
	Name   string   `json:"name"`
	After  []string `json:"after"`
	Stages []Stage  `json:"stages"`
}

// Stage is one PST stage.
type Stage struct {
	Name  string `json:"name"`
	Tasks []Task `json:"tasks"`
}

// Task is one PST task. Copies > 1 replicates the task within its stage —
// the natural encoding of an ensemble member set.
type Task struct {
	Name        string            `json:"name"`
	Executable  string            `json:"executable"`
	Arguments   []string          `json:"arguments"`
	Environment map[string]string `json:"environment"`
	DurationS   float64           `json:"duration_s"`
	Cores       int               `json:"cores"`
	GPUs        int               `json:"gpus"`
	IOLoad      float64           `json:"io_load"`
	Copies      int               `json:"copies"`
	Tags        map[string]string `json:"tags"`
	Input       []StagingEntry    `json:"input_staging"`
	Output      []StagingEntry    `json:"output_staging"`
}

// StagingEntry is one data-movement directive. Protocol selects the
// transfer mechanism for "transfer" actions (paper §II-D): cp, scp, gsiscp,
// sftp, gsisftp or globus; empty means the backend default.
type StagingEntry struct {
	Source   string `json:"source"`
	Target   string `json:"target"`
	Action   string `json:"action"` // copy | link | move | transfer
	Bytes    int64  `json:"bytes"`
	Protocol string `json:"protocol"`
}

// Parse decodes an App document from JSON.
func Parse(raw []byte) (*App, error) {
	var app App
	if err := json.Unmarshal(raw, &app); err != nil {
		return nil, fmt.Errorf("appjson: %w", err)
	}
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return &app, nil
}

// Validate checks the document for user errors before building entities.
func (a *App) Validate() error {
	if a.Resource.Name == "" {
		return fmt.Errorf("appjson: resource.name is required")
	}
	if a.Resource.Cores <= 0 {
		return fmt.Errorf("appjson: resource.cores must be positive")
	}
	if a.Resource.WalltimeS <= 0 {
		return fmt.Errorf("appjson: resource.walltime_s must be positive")
	}
	if len(a.Pipelines) == 0 {
		return fmt.Errorf("appjson: at least one pipeline is required")
	}
	if err := a.validateDependencies(); err != nil {
		return err
	}
	for pi, p := range a.Pipelines {
		if len(p.Stages) == 0 {
			return fmt.Errorf("appjson: pipeline %d (%s) has no stages", pi, p.Name)
		}
		for si, s := range p.Stages {
			if len(s.Tasks) == 0 {
				return fmt.Errorf("appjson: pipeline %d stage %d (%s) has no tasks", pi, si, s.Name)
			}
			for ti, task := range s.Tasks {
				if task.Executable == "" {
					return fmt.Errorf("appjson: task %d in stage %s has no executable", ti, s.Name)
				}
				if task.DurationS < 0 || task.Copies < 0 || task.IOLoad < 0 {
					return fmt.Errorf("appjson: task %s has negative fields", task.Name)
				}
				for _, st := range append(append([]StagingEntry{}, task.Input...), task.Output...) {
					switch st.Action {
					case "", "copy", "link", "move", "transfer":
					default:
						return fmt.Errorf("appjson: task %s has unknown staging action %q", task.Name, st.Action)
					}
					switch st.Protocol {
					case "", "cp", "scp", "gsiscp", "sftp", "gsisftp", "globus":
					default:
						return fmt.Errorf("appjson: task %s has unknown transfer protocol %q", task.Name, st.Protocol)
					}
				}
			}
		}
	}
	return nil
}

// validateDependencies checks the After graph: names resolvable, unique
// when referenced, and no self-dependency. (Cycles across several pipelines
// are caught by the core engine before execution.)
func (a *App) validateDependencies() error {
	anyAfter := false
	for _, p := range a.Pipelines {
		if len(p.After) > 0 {
			anyAfter = true
			break
		}
	}
	if !anyAfter {
		return nil
	}
	seen := map[string]int{}
	for _, p := range a.Pipelines {
		if p.Name == "" {
			return fmt.Errorf("appjson: pipelines must be named when \"after\" is used")
		}
		seen[p.Name]++
		if seen[p.Name] > 1 {
			return fmt.Errorf("appjson: duplicate pipeline name %q with \"after\" in use", p.Name)
		}
	}
	for _, p := range a.Pipelines {
		for _, dep := range p.After {
			if dep == p.Name {
				return fmt.Errorf("appjson: pipeline %q depends on itself", p.Name)
			}
			if seen[dep] == 0 {
				return fmt.Errorf("appjson: pipeline %q depends on unknown pipeline %q", p.Name, dep)
			}
		}
	}
	return nil
}

// action maps a JSON staging action (default copy) to the core type.
func action(s string) core.StagingAction {
	switch s {
	case "link":
		return core.StagingLink
	case "move":
		return core.StagingMove
	case "transfer":
		return core.StagingTransfer
	default:
		return core.StagingCopy
	}
}

func directives(entries []StagingEntry) []core.StagingDirective {
	if len(entries) == 0 {
		return nil
	}
	out := make([]core.StagingDirective, 0, len(entries))
	for _, e := range entries {
		out = append(out, core.StagingDirective{
			Source: e.Source, Target: e.Target,
			Action: action(e.Action), Bytes: e.Bytes, Protocol: e.Protocol,
		})
	}
	return out
}

// structuralUID formats "<kind>.%03d[.%03d[.%05d]]" from an entity's position
// in the document: its pipeline index, then stage index, then task index.
func structuralUID(kind string, pos ...int) string {
	var buf [48]byte
	b := append(buf[:0], kind...)
	for level, i := range pos {
		width := 3
		if level == 2 {
			width = 5
		}
		b = core.AppendPadded(append(b, '.'), uint64(i), width)
	}
	return string(b)
}

// copyName is the name of the c-th copy of a task: "<name>-%03d".
func copyName(name string, c int) string {
	var buf [48]byte
	b := append(buf[:0], name...)
	return string(core.AppendPadded(append(b, '-'), uint64(c), 3))
}

// Build materializes the document into core pipelines, returning them and
// the total task count.
func (a *App) Build() ([]*core.Pipeline, int, error) {
	if err := a.Validate(); err != nil {
		return nil, 0, err
	}
	var pipes []*core.Pipeline
	byName := map[string]*core.Pipeline{}
	total := 0
	for pi, pd := range a.Pipelines {
		pipe := core.NewPipeline(pd.Name)
		// Structural UIDs: derived from the entity's position in the
		// document, not the process-global counter, so two processes
		// building the same document name every entity identically — the
		// property cross-process Resume needs to match journaled states
		// back to entities (docs/recovery.md). The usual entity-kind
		// prefixes are preserved: pipeline.%03d, stage.%03d.%03d,
		// task.%03d.%03d.%05d.
		pipe.UID = structuralUID("pipeline", pi)
		if pd.Name != "" {
			byName[pd.Name] = pipe
		}
		for si, sd := range pd.Stages {
			stage := core.NewStage(sd.Name)
			stage.UID = structuralUID("stage", pi, si)
			ti := 0
			for _, td := range sd.Tasks {
				copies := td.Copies
				if copies < 1 {
					copies = 1
				}
				for c := 0; c < copies; c++ {
					// A literal, not core.NewTask: that would mint a
					// process-global UID only to have it overwritten.
					t := &core.Task{
						UID:        structuralUID("task", pi, si, ti),
						Name:       copyName(td.Name, c),
						MaxRetries: -1,
					}
					ti++
					t.Executable = td.Executable
					t.Arguments = append([]string(nil), td.Arguments...)
					if len(td.Environment) > 0 {
						t.Environment = map[string]string{}
						for k, v := range td.Environment {
							t.Environment[k] = v
						}
					}
					t.Duration = time.Duration(td.DurationS * float64(time.Second))
					t.CPUReqs = core.CPUReqs{Processes: td.Cores}
					t.GPUReqs = core.GPUReqs{Processes: td.GPUs}
					t.IOLoad = td.IOLoad
					if len(td.Tags) > 0 {
						t.Tags = map[string]string{}
						for k, v := range td.Tags {
							t.Tags[k] = v
						}
					}
					t.InputStaging = directives(td.Input)
					t.OutputStaging = directives(td.Output)
					if err := stage.AddTask(t); err != nil {
						return nil, 0, err
					}
					total++
				}
			}
			if err := pipe.AddStage(stage); err != nil {
				return nil, 0, err
			}
		}
		pipes = append(pipes, pipe)
	}
	// Wire pipeline dependencies after all pipelines exist.
	for i, pd := range a.Pipelines {
		for _, dep := range pd.After {
			if err := pipes[i].After(byName[dep]); err != nil {
				return nil, 0, err
			}
		}
	}
	return pipes, total, nil
}

// Walltime returns the resource walltime as a duration.
func (a *App) Walltime() time.Duration {
	return time.Duration(a.Resource.WalltimeS) * time.Second
}
