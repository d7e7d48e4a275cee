package main

import "testing"

func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		hosts, fams, size, window, ops int
		ok                             bool
	}{
		{4, 1, 64, 8, 2000, true}, // the defaults
		{1, 1, 512, 1, 1, true},   // the largest payload one packet carries
		{0, 1, 64, 8, 2000, false},
		{4, 0, 64, 8, 2000, false}, // hosts pick their FAM by index
		{4, 1, 0, 8, 2000, false},
		{4, 1, 513, 8, 2000, false},
		{4, 1, 64, 0, 2000, false},
		{4, 1, 64, 8, 0, false},
	} {
		if err := checkFlags(tc.hosts, tc.fams, tc.size, tc.window, tc.ops); (err == nil) != tc.ok {
			t.Errorf("%+v: got %v", tc, err)
		}
	}
}
