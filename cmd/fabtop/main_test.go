package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		hosts, fams int
		trace, ok   bool
	}{
		{2, 2, false, true},
		{2, 2, true, true},
		{1, 0, false, true}, // a cluster without FAMs still renders
		{0, 2, false, false},
		{2, 0, true, false}, // nothing for the traced read to reach
	} {
		if err := checkFlags(tc.hosts, tc.fams, tc.trace); (err == nil) != tc.ok {
			t.Errorf("hosts=%d fams=%d trace=%v: got %v, want ok=%v", tc.hosts, tc.fams, tc.trace, err, tc.ok)
		}
	}
}
