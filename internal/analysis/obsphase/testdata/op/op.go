// Golden cases for the obsphase analyzer, loaded under
// kanon/internal/core. Imports the real obs package so the method
// resolution matches production exactly.
package op

import (
	"errors"

	"kanon/internal/obs"
)

// good is the idiomatic single-exit form.
func good(o *obs.Run) {
	defer o.Phase("p.good")()
}

// goodNamed ends the phase explicitly on both paths.
func goodNamed(o *obs.Run, fail bool) error {
	end := o.Phase("p.named")
	if fail {
		end()
		return errors.New("fail")
	}
	end()
	return nil
}

// goodDefer arms the end once for every exit.
func goodDefer(o *obs.Run, fail bool) error {
	end := o.Phase("p.gooddefer")
	defer end()
	if fail {
		return errors.New("fail")
	}
	return nil
}

// loopPattern mirrors the agglomerative engine: early exits inside the
// loop each end the phase before returning.
func loopPattern(o *obs.Run, items []int) error {
	end := o.Phase("p.loop")
	for _, it := range items {
		if it < 0 {
			end()
			return errors.New("negative")
		}
	}
	end()
	return nil
}

// missingOnPath forgets the end closure on the error path.
func missingOnPath(o *obs.Run, fail bool) error {
	end := o.Phase("p.missing")
	if fail {
		return errors.New("fail") // want "return without calling the obs.Run.Phase end closure"
	}
	end()
	return nil
}

// fallsOff only ends the phase conditionally and then falls off the end.
func fallsOff(o *obs.Run, n int) {
	end := o.Phase("p.falls") // want "not called before the function falls off the end"
	if n > 0 {
		end()
	}
}

// collapsed invokes the closure immediately: a zero-width phase.
func collapsed(o *obs.Run) {
	o.Phase("p.collapsed")() // want "invoked immediately"
}

// discarded starts a phase that can never end.
func discarded(o *obs.Run) {
	o.Phase("p.discarded") // want "end closure discarded"
}

// blank throws the end closure away explicitly.
func blank(o *obs.Run) {
	_ = o.Phase("p.blank") // want "assigned to _"
}

// deferStart defers the start instead of the end.
func deferStart(o *obs.Run) {
	defer o.Phase("p.deferstart") // want "defers the phase start"
}

// escapes hands the closure to the caller; the analyzer trusts explicit
// ownership transfer.
func escapes(o *obs.Run) func() {
	end := o.Phase("p.escapes")
	return end
}

// allowedCollapse shows the suppression form.
func allowedCollapse(o *obs.Run) {
	o.Phase("p.allowed")() //kanon:allow obsphase -- intentional zero-width marker phase
}

// rawLit forges a bracket event by hand, as a literal.
func rawLit() obs.Event {
	return obs.Event{Kind: obs.KindPhaseEnd, Phase: "p.rawlit"} // want "obs.Event literal with a phase-bracket kind"
}
