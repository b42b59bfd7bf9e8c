package campaign

import (
	"fmt"
	"log"
)

// CLI binds a command's -checkpoint and -resume flags to one
// checkpoint. Its Resume and Progress methods are the campaign hooks:
// they do nothing when neither flag is set, and Progress saves the
// checkpoint after every stored cell.
type CLI[E comparable, K, R any] struct {
	ckpt *Checkpoint[E, K, R]
	path string
}

// OpenCLI loads the -resume file and checks it against echo, or starts
// an empty checkpoint when only -checkpoint is set. Progress is saved
// to the -checkpoint path, or back to the -resume file when -checkpoint
// is empty.
func OpenCLI[E comparable, K, R any](echo E, checkpoint, resume string) (*CLI[E, K, R], error) {
	c := &CLI[E, K, R]{path: checkpoint}
	switch {
	case resume != "":
		loaded, err := Load[E, K, R](resume)
		if err != nil {
			return nil, fmt.Errorf("loading checkpoint: %w", err)
		}
		if err := loaded.Compatible(echo); err != nil {
			return nil, err
		}
		if c.path == "" {
			c.path = resume
		}
		c.ckpt = loaded
		fmt.Printf("Resuming from %s: %d cells complete.\n", resume, loaded.Cells())
	case checkpoint != "":
		c.ckpt = NewCheckpoint[E, K, R](echo)
	}
	return c, nil
}

// Resume is the resume hook: the checkpointed result, if any.
func (c *CLI[E, K, R]) Resume(row string, col K) (R, bool) {
	if c.ckpt == nil {
		var zero R
		return zero, false
	}
	return c.ckpt.Lookup(row, col)
}

// Progress is the progress hook: it stores the cell and saves the
// checkpoint, exiting the command if the save fails.
func (c *CLI[E, K, R]) Progress(row string, col K, r R) {
	if c.ckpt == nil {
		return
	}
	c.ckpt.Store(row, col, r)
	if err := c.ckpt.Save(c.path); err != nil {
		log.Fatalf("writing checkpoint: %v", err)
	}
}

// Interrupted prints how far an interrupted run got and how to resume.
func (c *CLI[E, K, R]) Interrupted() {
	if c.ckpt == nil {
		fmt.Println("interrupted (no -checkpoint path; progress not saved)")
		return
	}
	fmt.Printf("interrupted with %d cells complete; resume with -resume %s\n", c.ckpt.Cells(), c.path)
}
