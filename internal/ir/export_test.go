package ir

// CheckProgramText holds a program to the fmt printer's spelling; the
// corpus round trip (package ir_test, which may import the parser) uses it.
var CheckProgramText = checkProgramText
