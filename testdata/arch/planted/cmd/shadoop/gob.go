package main

import . "encoding/gob"

var enc = NewEncoder(nil)
