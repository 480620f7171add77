package core

import (
	"strconv"

	"repro/internal/autotune"
)

// This file wires the autotune controller into a run: the sampler assembles
// one Signals view per tick from the broker, the RTS store and the event
// bus, and the apply hook turns committed decisions into EventKnob events.
// Each sampling tick traverses the broker's stats surface once, so it is
// charged like any other management-plane traversal (msgDelay) — tuning
// cost shows up in the EnTK Management profiler category, visible on the
// Fig 7–9 overhead axes.

// startAutotune spawns the controller goroutine when the policy enables it.
// Called from Start after the components are up, so the sampler always sees
// a live broker and (usually) a live RTS.
func (am *AppManager) startAutotune() {
	pol := am.cfg.Autotune
	if !pol.Enabled || am.live == nil {
		return
	}
	if pol.StrainThreshold == 0 {
		pol.StrainThreshold = am.host.StrainThreshold
	}
	am.tuner = autotune.NewController(am.live, pol)
	am.tunerStop = make(chan struct{})
	am.tunerWG.Add(1)
	go func() {
		defer am.tunerWG.Done()
		am.tuner.Run(am.tunerStop, am.clock.After, am.autotuneSignals, am.applyKnobChanges)
	}()
}

// stopAutotune ends the controller before component teardown, so no sample
// can race a closing broker or a stopping RTS.
func (am *AppManager) stopAutotune() {
	if am.tuner == nil {
		return
	}
	close(am.tunerStop)
	am.tunerWG.Wait()
}

// autotuneSignals assembles one controller sample. Counter fields are
// cumulative (the controller differences them itself).
func (am *AppManager) autotuneSignals() autotune.Signals {
	sig := autotune.Signals{
		ActiveTasks: am.ActiveTasks(),
		EventDrops:  am.events.drops.Load(),
	}
	if qs, err := am.brk.Stats(am.qname(qPending)); err == nil {
		sig.QueueDepth = qs.Depth
	}
	if am.emgr != nil {
		if rts := am.emgr.currentRTS(); rts != nil {
			st := rts.Stats().Store
			sig.StoreDepth = st.Depth
			sig.Dispatched = st.SchedulerDispatches
			sig.SchedulerBusy = st.SchedulerBusy
		}
	}
	am.msgDelay() // one management-plane traversal per sample
	return sig
}

// applyKnobChanges publishes one typed knob event per committed controller
// decision (the knob handle's Version already counts it for Progress).
func (am *AppManager) applyKnobChanges(changes []autotune.KnobChange) {
	for _, ch := range changes {
		am.emitKnob(ch)
	}
}

// emitKnob publishes one knob decision on the event stream. From/To carry
// the knob values as decimal strings (the Event state fields are strings);
// UID scopes the event to the controller and names the rule that fired.
func (am *AppManager) emitKnob(ch autotune.KnobChange) {
	if !am.eventsActive() {
		return
	}
	am.events.Publish(Event{
		Kind:  EventKnob,
		UID:   "autotune/" + ch.Reason,
		Name:  autotune.KnobBatch,
		From:  strconv.Itoa(ch.From),
		To:    strconv.Itoa(ch.To),
		VTime: am.clock.Now(),
	})
}
