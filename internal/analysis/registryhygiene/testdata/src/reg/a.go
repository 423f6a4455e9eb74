// Package reg stands in for internal/registry: it owns the Algorithm
// type, the waiver list, and the references that mark constructors as
// registered.
package reg

import "algo" // want `algo.Bad is neither registered` `algo.NewGreedy is neither registered` `algo.Reasonless is neither registered`

type Class int

const General Class = 0

type Algorithm struct {
	Name      string
	Classes   []Class
	Guarantee string
}

// UnregisteredOK waives deliberately unregistered constructors.
var UnregisteredOK = map[string]string{
	"algo.Waived":     "building block of Good, covered through it",
	"algo.Good":       "already registered", // want `stale waiver: algo.Good is registered`
	"algo.Gone":       "does not exist",     // want `stale waiver: algo.Gone does not name an exported constructor`
	"algo.Reasonless": "",                   // want `waiver for algo.Reasonless has no reason`
}

// The reference that marks Good as registered.
var _ = algo.Good

// A complete registration passes.
var _ = Algorithm{
	Name:      "good",
	Classes:   []Class{General},
	Guarantee: "4-approximation",
}

var _ = Algorithm{ // want `must declare Classes`
	Name:      "no-classes",
	Guarantee: "heuristic",
}

var _ = Algorithm{ // want `must declare a Guarantee`
	Name:    "no-guarantee",
	Classes: []Class{General},
}

var _ = Algorithm{
	Name:      "empty-classes",
	Classes:   []Class{}, // want `declares empty Classes`
	Guarantee: "heuristic",
}

var _ = Algorithm{
	Name:      "empty-guarantee",
	Classes:   []Class{General},
	Guarantee: "", // want `declares an empty Guarantee`
}

// A zero value is not a registration.
var _ = Algorithm{}
