package remoterts

import (
	"repro/internal/core"
	"repro/internal/msgcodec"
)

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
