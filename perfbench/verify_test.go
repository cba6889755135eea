package main

import (
	"context"
	"testing"
)

// TestInjectedWrongAnswerFails runs a few patient-cold ops, corrupts one
// verified answer, and checks that verification counts it as failed.
func TestInjectedWrongAnswerFails(t *testing.T) {
	sys, err := setupPatient(5, 2*patientVerifyEvery, nil)
	if err != nil {
		t.Fatal(err)
	}
	ops := sys.stream()
	recs := make([]opRecord, len(ops))
	for i := range recs {
		if err := sys.exec(context.Background(), i, &recs[i], nil); err != nil {
			t.Fatal(err)
		}
		recs[i].done = true
	}
	if err := sys.verify(recs); err != nil {
		t.Fatal(err)
	}
	failed, verified := countFailures(ops, recs)
	if failed != 0 || verified != 2 {
		t.Fatalf("clean run: %d failed, %d verified; want 0 and 2", failed, verified)
	}

	recs[0].results[len(recs[0].results)-1].Distance += 1e-9
	if err := sys.verify(recs); err != nil {
		t.Fatal(err)
	}
	if failed, _ := countFailures(ops, recs); failed != 1 {
		t.Fatalf("after injecting a wrong answer: %d failed, want 1", failed)
	}
}
