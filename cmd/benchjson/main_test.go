package main

import (
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"
)

// TestDocPathTakesFirstFreeName fills a day's names one by one: each
// call picks the first name not yet taken, in the order benchdiff's sort
// reads as oldest first, and once BENCH_<date>z.json exists there is
// none left.
func TestDocPathTakesFirstFreeName(t *testing.T) {
	dir := t.TempDir()
	var names []string
	for i := 0; i < 26; i++ {
		path, err := docPath(dir, "", "2026-10-19")
		if err != nil {
			t.Fatalf("name %d: %v", i, err)
		}
		if err := writeNew(path, []byte("{}\n")); err != nil {
			t.Fatal(err)
		}
		names = append(names, filepath.Base(path))
	}
	if names[0] != "BENCH_2026-10-19.json" || names[1] != "BENCH_2026-10-19b.json" || names[25] != "BENCH_2026-10-19z.json" {
		t.Fatalf("names %v", names)
	}
	if !sort.StringsAreSorted(names) || len(slices.Compact(slices.Clone(names))) != 26 {
		t.Fatalf("names are not 26 distinct names in sorted order: %v", names)
	}
	if path, err := docPath(dir, "", "2026-10-19"); err == nil {
		t.Fatalf("a 27th document got %s", path)
	}
}

// TestDocPathRefusesExistingOut: an explicit -out is used as given while
// it is free, and is an error once it exists; writeNew never replaces a
// file either.
func TestDocPathRefusesExistingOut(t *testing.T) {
	out := filepath.Join(t.TempDir(), "mine.json")
	if path, err := docPath(".", out, "2026-10-19"); err != nil || path != out {
		t.Fatalf("free -out: %q, %v", path, err)
	}
	if err := writeNew(out, []byte("old\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := docPath(".", out, "2026-10-19"); err == nil {
		t.Fatal("an existing -out was accepted")
	}
	if err := writeNew(out, []byte("new\n")); err == nil {
		t.Fatal("writeNew replaced an existing file")
	}
	if b, _ := os.ReadFile(out); string(b) != "old\n" {
		t.Fatalf("the existing file now reads %q", b)
	}
}
