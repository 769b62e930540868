// Package stalemod type-checks cleanly but carries suppression directives
// that suppress nothing: the driver must report each as a finding of the
// "suppression" pseudo-analyzer and exit 1.
package stalemod

//semandaq:vet-ignore lockorder nothing on this line ever takes a lock
func Fine() int {
	return 1
}

//semandaq:vet-ignore nosuchanalyzer a typo suppresses nothing forever
func AlsoFine() int {
	return 2
}
