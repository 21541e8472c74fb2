package obs

type Span struct{ Name string }

type jobSpan struct{ Name string }
