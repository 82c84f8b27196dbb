// Fixture: lock usage the lock-order rule must stay silent on — each
// guard released before the next lock or a transport call, a lone
// lock, and lock-shaped I/O calls.
fn released_then_reordered(s: &Store) {
    let pins = s.pins.lock();
    drop(pins);
    let inner = s.inner.read();
}

fn scoped(s: &Store) {
    {
        let pins = s.pins.lock();
    }
    let inner = s.inner.read();
}

fn rpc_after_release(s: &Store, transport: &mut T) {
    let epoch = { s.inner.read().epoch() };
    transport.call(epoch, serve);
}

fn undeclared(s: &Store) {
    let ghost = s.ghost.lock();
}

fn not_locks(s: &Store, vfs: &mut Vfs) {
    let out = stdout().lock();
    let data = vfs.read(path);
    vfs.write(path, data);
}
