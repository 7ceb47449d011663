// Fixture: the only config key the fixture's code reads.
int64_t Capacity(const Config& config) {
  return config.GetInt(
      "cache.capacity", 64);
}
