package modsafe_test

import "testing"

// blankSrc assigns acquires to the blank identifier. A blank destination
// holds nothing, so each form is as discarded as a bare call; a receiver
// resource is still keyed by its receiver, which blankPauseReleased's
// release matches.
const blankSrc = `package blanks

import "errors"

type Session struct{}

//modsafe:acquires session test resource
func Open() (*Session, error) { return &Session{}, nil }

//modsafe:acquires session test resource
func MustOpen() *Session { return &Session{} }

//modsafe:releases session test resource
func (s *Session) Close() {}

type Domain struct{}

//modsafe:acquires pause test resource
func (d *Domain) Pause() error { return nil }

//modsafe:releases pause test resource
func (d *Domain) Unpause() {}

func bare() {
	MustOpen() // want releasetrack "session from blanks.MustOpen is discarded"
}

func blankMust() {
	_ = MustOpen() // want releasetrack "session from blanks.MustOpen is discarded"
}

func blankPair() {
	_, _ = Open() // want releasetrack "session from blanks.Open is discarded"
}

func blankSession() error {
	_, err := Open() // want releasetrack "session from blanks.Open is discarded"
	return err
}

func blankErr() {
	s, _ := Open()
	s.Close()
}

func blankPause(d *Domain) {
	_ = d.Pause() // want releasetrack "acquired from (*blanks.Domain).Pause escapes unreleased"
}

func blankPauseReleased(d *Domain) error {
	_ = d.Pause()
	d.Unpause()
	return errors.New("done")
}
`

// TestReleasetrackBlankDestinations matches releasetrack's findings over
// blankSrc against its // want comments.
func TestReleasetrackBlankDestinations(t *testing.T) {
	matchReleasetrack(t, "blanks", blankSrc)
}
