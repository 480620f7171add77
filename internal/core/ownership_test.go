package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// lateRTS is a fakeRTS that acts on every batch only after Submit has
// returned, from its own copy — what the RTS contract asks of an
// implementation that keeps tasks for later — and that, before returning,
// overwrites all of the slice it was handed, which the contract says is the
// caller's to reuse: the Emgr's next batch finds nothing of this one to lean on.
type lateRTS struct {
	*fakeRTS
	t    *testing.T
	want map[string]TaskDescription // by UID: what each task describes to
}

func (r *lateRTS) Submit(tasks []TaskDescription) error {
	mine := append([]TaskDescription(nil), tasks...)
	for i, all := 0, tasks[:cap(tasks)]; i < len(all); i++ {
		all[i] = TaskDescription{UID: "overwritten", Name: "stale", Arguments: []string{"stale"},
			Tags: map[string]string{"stale": "stale"}, Input: []StagingDirective{{Source: "stale"}}, Cores: 99}
	}
	returned := make(chan struct{})
	defer close(returned)
	go func() {
		<-returned
		for _, d := range mine {
			if want, ok := r.want[d.UID]; !ok || !reflect.DeepEqual(d, want) {
				r.t.Errorf("submitted\n %+v\nthe task describes to\n %+v", d, want)
			}
		}
		r.fakeRTS.Submit(mine) //nolint:errcheck // never refuses
	}()
	return nil
}

// TestSubmitMustNotRetainTheBatch runs stages that reach the Emgr as separate
// batches, of tasks that differ in which optional fields they set, through an
// RTS that overwrites the Emgr's description buffer after every batch and
// looks at its own copies only after Submit returned: every description must
// be exactly its task's, whatever the buffer held before (run it under -race).
func TestSubmitMustNotRetainTheBatch(t *testing.T) {
	am, fake := testApp(t, Config{})
	rts := &lateRTS{fakeRTS: fake, t: t, want: map[string]TaskDescription{}}
	am.SetRTSFactory(func(ResourceDesc) (RTS, error) { return rts, nil })
	pipes := buildApp(6, 3, 5, time.Second)
	n := 0
	for _, p := range pipes {
		for _, s := range p.Stages() {
			for _, task := range s.Tasks() {
				n++
				task.Name = fmt.Sprintf("t%d", n)
				if n%2 == 0 {
					task.Arguments = []string{"-n", fmt.Sprint(n)}
				}
				if n%3 == 0 {
					task.Tags = map[string]string{"n": fmt.Sprint(n)}
					task.CPUReqs.Processes = 2
				}
				if n%4 == 0 {
					task.InputStaging = []StagingDirective{{Action: StagingCopy, Source: fmt.Sprintf("in.%d", n), Bytes: int64(n)}}
				}
				d := describeTask(task)
				d.Attempt = 1 // made when the task is first scheduled
				rts.want[task.UID] = d
			}
		}
	}
	am.AddPipelines(pipes...) //nolint:errcheck
	if err := runApp(t, am); err != nil {
		t.Fatal(err)
	}
	if got := am.Snapshot().Tasks[string(TaskDone)]; got != n {
		t.Fatalf("%d of %d tasks done", got, n)
	}
}
