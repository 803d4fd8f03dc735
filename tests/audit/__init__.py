"""The execution audit: a hook, and a driver that runs every entry point under it."""
