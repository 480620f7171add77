package remoterts

import (
	"repro/internal/core"
	"repro/internal/msgcodec"
)

// toRemoteTask describes t in its wire shape. rt is the task-batch encoder's
// scratch value: its staging slices arrive empty with the previous task's
// capacity and are appended to.
func toRemoteTask(rt *msgcodec.RemoteTask, t *core.TaskDescription) {
	*rt = msgcodec.RemoteTask{
		UID:         t.UID,
		Name:        t.Name,
		Executable:  t.Executable,
		Arguments:   t.Arguments,
		Environment: t.Environment,
		Cores:       t.Cores,
		GPUs:        t.GPUs,
		Duration:    t.Duration,
		IOLoad:      t.IOLoad,
		PreExec:     t.PreExec,
		PostExec:    t.PostExec,
		Input:       appendRemoteStaging(rt.Input, t.Input),
		Output:      appendRemoteStaging(rt.Output, t.Output),
		Attempt:     t.Attempt,
		Tags:        t.Tags,
	}
}

// fromRemoteTask is the agent-side inverse of toRemoteTask. rt is the
// decoder's scratch value, so its staging slices are copied, not kept.
func fromRemoteTask(t *core.TaskDescription, rt *msgcodec.RemoteTask) {
	*t = core.TaskDescription{
		UID:         rt.UID,
		Name:        rt.Name,
		Executable:  rt.Executable,
		Arguments:   rt.Arguments,
		Environment: rt.Environment,
		Cores:       rt.Cores,
		GPUs:        rt.GPUs,
		Duration:    rt.Duration,
		IOLoad:      rt.IOLoad,
		PreExec:     rt.PreExec,
		PostExec:    rt.PostExec,
		Input:       fromRemoteStaging(rt.Input),
		Output:      fromRemoteStaging(rt.Output),
		Attempt:     rt.Attempt,
		Tags:        rt.Tags,
	}
}

func appendRemoteStaging(out []msgcodec.RemoteStaging, ds []core.StagingDirective) []msgcodec.RemoteStaging {
	for _, d := range ds {
		out = append(out, msgcodec.RemoteStaging{
			Source:   d.Source,
			Target:   d.Target,
			Action:   string(d.Action),
			Bytes:    d.Bytes,
			Protocol: d.Protocol,
		})
	}
	return out
}

func fromRemoteStaging(ds []msgcodec.RemoteStaging) []core.StagingDirective {
	if len(ds) == 0 {
		return nil
	}
	out := make([]core.StagingDirective, len(ds))
	for i, d := range ds {
		out[i] = core.StagingDirective{
			Source:   d.Source,
			Target:   d.Target,
			Action:   core.StagingAction(d.Action),
			Bytes:    d.Bytes,
			Protocol: d.Protocol,
		}
	}
	return out
}

// toRemoteEvents translates lifecycle events into their wire shape.
func toRemoteEvents(evs []core.Event) []msgcodec.RemoteEvent {
	out := make([]msgcodec.RemoteEvent, len(evs))
	for i, ev := range evs {
		out[i] = msgcodec.RemoteEvent{
			Kind:     string(ev.Kind),
			UID:      ev.UID,
			Name:     ev.Name,
			Pipeline: ev.Pipeline,
			Stage:    ev.Stage,
			From:     ev.From,
			To:       ev.To,
			VTime:    ev.VTime,
			Attempt:  ev.Attempt,
		}
	}
	return out
}

// fromRemoteEvents is the subscriber-side inverse of toRemoteEvents.
func fromRemoteEvents(evs []msgcodec.RemoteEvent) []core.Event {
	out := make([]core.Event, len(evs))
	for i, ev := range evs {
		out[i] = core.Event{
			Kind:     core.EventKind(ev.Kind),
			UID:      ev.UID,
			Name:     ev.Name,
			Pipeline: ev.Pipeline,
			Stage:    ev.Stage,
			From:     ev.From,
			To:       ev.To,
			VTime:    ev.VTime,
			Attempt:  ev.Attempt,
		}
	}
	return out
}
