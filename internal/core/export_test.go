package core

// BuildSequential exposes buildSequential, the reference engine's S, to
// the external tests that pin the unified engine's witness to it.
var BuildSequential = buildSequential
