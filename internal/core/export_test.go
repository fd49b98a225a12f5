package core

// FailingPlan is failingPlan on session s, for the external tests.
func FailingPlan(s *Tenant) *CompiledPlan { return failingPlan(&testComm{Comm: s.c, s: s}) }
