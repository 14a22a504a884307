package core

// Test-only views for the external core_test package.
const RaceEnabled = raceEnabled

var PaperModel = paperModel
