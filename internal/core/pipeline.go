package core

import (
	"fmt"
	"sync"
)

// Pipeline is "a list of stages where any stage i can be executed only after
// stage i-1 has been executed" (paper §II-B1). Pipelines in an application
// execute concurrently with one another.
type Pipeline struct {
	UID  string
	Name string

	mu      sync.RWMutex
	stages  []*Stage
	state   PipelineState
	current int // index of the stage being executed; len(stages) when done
	after   []*Pipeline
}

// NewPipeline returns an empty pipeline in the initial state.
func NewPipeline(name string) *Pipeline {
	return &Pipeline{
		UID:   NewUID("pipeline"),
		Name:  name,
		state: PipelineInitial,
	}
}

// AddStage appends a stage. Stages may be appended while the pipeline runs —
// this is how adaptive applications (the AUA use case) extend the workflow
// from a PostExec decision — but never before the currently executing stage.
func (p *Pipeline) AddStage(s *Stage) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state.Terminal() {
		return fmt.Errorf("core: cannot add stage to %s pipeline %s", p.state, p.UID)
	}
	s.setPipeline(p)
	p.stages = append(p.stages, s)
	return nil
}

// AddStages appends several stages.
func (p *Pipeline) AddStages(ss ...*Stage) error {
	for _, s := range ss {
		if err := p.AddStage(s); err != nil {
			return err
		}
	}
	return nil
}

// Stages returns the pipeline's stages.
func (p *Pipeline) Stages() []*Stage {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*Stage, len(p.stages))
	copy(out, p.stages)
	return out
}

// StageCount returns the number of stages currently in the pipeline.
func (p *Pipeline) StageCount() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.stages)
}

// State returns the pipeline's current state.
func (p *Pipeline) State() PipelineState {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.state == "" {
		return PipelineInitial
	}
	return p.state
}

func (p *Pipeline) advance(to PipelineState) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	from := p.state
	if from == "" {
		from = PipelineInitial
	}
	if !legalPipeline(from, to) {
		return &TransitionError{Entity: "pipeline", UID: p.UID, From: string(from), To: string(to)}
	}
	p.state = to
	return nil
}

func (p *Pipeline) forceState(st PipelineState) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.state = st
}

// After declares that p may start only once every pipeline in preds has
// finished. This realizes the paper's PST extension "dependencies among
// groups of pipelines in terms of lists of sets of pipelines" (§II-B1):
// pipelines with no unfinished predecessors still execute concurrently, but
// a dependent pipeline is held in its initial state until its predecessors
// reach DONE. If a predecessor fails or is canceled, the dependent pipeline
// is canceled. Dependencies must be declared before execution starts.
func (p *Pipeline) After(preds ...*Pipeline) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.state != PipelineInitial && p.state != "" {
		return fmt.Errorf("core: cannot add dependencies to %s pipeline %s", p.state, p.UID)
	}
	for _, pred := range preds {
		if pred == nil {
			return fmt.Errorf("core: pipeline %s: nil predecessor", p.UID)
		}
		if pred == p {
			return fmt.Errorf("core: pipeline %s cannot depend on itself", p.UID)
		}
		dup := false
		for _, existing := range p.after {
			if existing == pred {
				dup = true
				break
			}
		}
		if !dup {
			p.after = append(p.after, pred)
		}
	}
	return nil
}

// Predecessors returns the pipelines p waits on.
func (p *Pipeline) Predecessors() []*Pipeline {
	p.mu.RLock()
	defer p.mu.RUnlock()
	out := make([]*Pipeline, len(p.after))
	copy(out, p.after)
	return out
}

// depsStatus reports whether all predecessors finished successfully (ready)
// or whether at least one failed or was canceled (blocked). A pipeline with
// no dependencies is always ready.
func (p *Pipeline) depsStatus() (ready, blocked bool) {
	ready = true
	for _, pred := range p.Predecessors() {
		switch pred.State() {
		case PipelineDone:
		case PipelineFailed, PipelineCanceled:
			return false, true
		default:
			ready = false
		}
	}
	return ready, false
}

// currentStage returns the stage at the execution cursor, or nil when the
// cursor is past the last stage.
func (p *Pipeline) currentStage() *Stage {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if p.current < len(p.stages) {
		return p.stages[p.current]
	}
	return nil
}

// advanceCursor moves to the next stage, returning it (nil when exhausted).
func (p *Pipeline) advanceCursor() *Stage {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.current++
	if p.current < len(p.stages) {
		return p.stages[p.current]
	}
	return nil
}

// CurrentStageIndex returns the execution cursor (for observability).
func (p *Pipeline) CurrentStageIndex() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.current
}

// Suspend pauses a scheduling pipeline; its queued tasks finish but no new
// stage starts until Resume.
func (p *Pipeline) Suspend() error { return p.advance(PipelineSuspended) }

// Resume reactivates a suspended pipeline.
func (p *Pipeline) Resume() error { return p.advance(PipelineScheduling) }

// Validate checks the pipeline description.
func (p *Pipeline) Validate() error {
	if p.UID == "" {
		return fmt.Errorf("core: pipeline with empty UID")
	}
	p.mu.RLock()
	stages := p.stages
	p.mu.RUnlock()
	if len(stages) == 0 {
		return fmt.Errorf("core: pipeline %s (%s) has no stages", p.UID, p.Name)
	}
	for _, s := range stages {
		if err := s.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// TaskCount returns the total number of tasks across all stages.
func (p *Pipeline) TaskCount() int {
	n := 0
	for _, s := range p.Stages() {
		n += s.TaskCount()
	}
	return n
}
