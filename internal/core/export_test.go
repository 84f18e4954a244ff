package core

// LocalSessions reports how many library sessions me holds.
func LocalSessions(me *MigrationEnclave) int {
	me.mu.Lock()
	defer me.mu.Unlock()
	return len(me.locals)
}

// SkipLocalReply makes me's next reply to lib arrive out of order, as if
// the untrusted OS had dropped one: lib fails to open it, although me has
// acted on the request. Callable while lib holds its lock.
func SkipLocalReply(me *MigrationEnclave, lib *Library) {
	me.mu.Lock()
	conn := me.locals[lib.sessionID]
	me.mu.Unlock()
	_, _ = conn.session.Channel.Seal(nil)
}
