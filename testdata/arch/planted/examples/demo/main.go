package main

import (
	"spatialhadoop/internal/core"
	"spatialhadoop/internal/sindex"
)

type handover struct {
	Name   string
	Master []byte
}

func main() {
	sys := core.New(core.Config{})
	sys.FS().WriteFile("pts", []string{"1,2"})
	_ = handover{Master: sindex.Encode(nil)}
}
