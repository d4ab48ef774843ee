package main

// Output digests of the default seed, committed so a run on that seed
// detects any change in what the program computes. After a deliberate
// output change, run each workload with --seed 1 and copy the digests from
// the run record's "digests" field.
const (
	goldenTransform = "253b58221789298a4df3f7bf1e11a79e63e193c929897c68ced1d99931838fe1"
	goldenMission   = "8d7db9cfeb43eeafe627121f8d92c1ffb667692e4ddece6919e3caf89b504360"
	goldenServe     = "d96cda04e471a8fbfc0ce860a5719c6e3f52962be434cbb8beb7ab96fe740856"
)
