/* The single-configuration walk over flat int64 set storage: a port of
 * the per-access walk of repro.cache.simulator.SingleConfigSimulator over
 * CacheSet objects, for the FIFO, LRU and PLRU policies.
 *
 * A block maps to set (block & (sets - 1)), whose A ways start at
 * set * A in tags (block + 1, so zero-filled storage is an empty cache)
 * and dirty (1 after a write).  The policy's state starts at
 * set * width in state:
 *   FIFO  width 1      the way the next insertion fills;
 *   LRU   width A      per way, the clock of its last touch, where the
 *                      access at chunk position i has clock + i + 1;
 *   PLRU  width A - 1  the tree bits (width 1 when A is 1).
 *
 * tally receives the chunk's hits, misses, evictions, writebacks and tag
 * comparisons, then its reads, writes and instruction fetches.  Miss j of
 * the chunk writes its position to positions[j] and the tag it evicted to
 * evicted[j], 0 for an empty way; both arrays hold count entries.  types
 * holds codes 0..2 (the caller checks them), or is NULL when every access
 * is a read.
 */
#include <stdint.h>

enum { FIFO = 0, LRU = 1, PLRU = 2 };

#define WRITE 1

static int64_t plru_victim(const int64_t *bits, int64_t associativity)
{
    int64_t node = 0, width = associativity, way = 0;
    while (width > 1) {
        width /= 2;
        if (bits[node]) {
            way += width;
            node = 2 * node + 2;
        } else {
            node = 2 * node + 1;
        }
    }
    return way;
}

/* Point every bit on the way's path at the half it is not in. */
static void plru_touch(int64_t *bits, int64_t associativity, int64_t way)
{
    int64_t node = 0, width = associativity, low = 0;
    while (width > 1) {
        width /= 2;
        if (way < low + width) {
            bits[node] = 1;
            node = 2 * node + 1;
        } else {
            bits[node] = 0;
            low += width;
            node = 2 * node + 2;
        }
    }
}

void single_walk(const int64_t *blocks, const int8_t *types, int64_t count,
                 int64_t clock, int64_t sets, int64_t associativity,
                 int64_t policy, int64_t *tags, int64_t *dirty,
                 int64_t *state, int64_t *tally, int64_t *positions,
                 int64_t *evicted)
{
    const int64_t mask = sets - 1;
    const int64_t width = policy == FIFO ? 1
                        : policy == LRU ? associativity
                        : (associativity > 1 ? associativity - 1 : 1);
    int64_t misses = 0, evictions = 0, writebacks = 0, compared = 0;
    int64_t by_type[3] = {0, 0, 0};

    for (int64_t i = 0; i < count; i++) {
        const int64_t tag = blocks[i] + 1;
        const int64_t set = blocks[i] & mask;
        const int64_t type = types != 0 ? types[i] : 0;
        const int64_t write = type == WRITE;
        by_type[type]++;
        int64_t *way_tags = tags + set * associativity;
        int64_t *way_dirty = dirty + set * associativity;
        int64_t *policy_state = state + set * width;

        /* Every valid way up to the match is compared.  Ways fill in way
         * order and nothing empties one, so the valid ways are a prefix
         * and the first empty way ends the search. */
        int64_t way = 0;
        while (way < associativity && way_tags[way] != 0 && way_tags[way] != tag)
            way++;
        if (way < associativity && way_tags[way] == tag) {
            compared += way + 1;
            if (write)
                way_dirty[way] = 1;
            if (policy == LRU)
                policy_state[way] = clock + i + 1;
            else if (policy == PLRU)
                plru_touch(policy_state, associativity, way);
            continue;
        }
        compared += way;

        /* Miss: way is the first empty way, or associativity when the set
         * is full.  FIFO fills its round-robin way either way; LRU and
         * PLRU fill an empty way first. */
        int64_t victim = way;
        if (policy == FIFO) {
            victim = policy_state[0];
            policy_state[0] = (victim + 1) % associativity;
        } else if (way == associativity) {
            if (policy == LRU) {
                /* Every way of a full set has been touched, so the least
                 * recently used one holds the smallest clock. */
                victim = 0;
                for (int64_t w = 1; w < associativity; w++)
                    if (policy_state[w] < policy_state[victim])
                        victim = w;
            } else {
                victim = plru_victim(policy_state, associativity);
            }
        }
        const int64_t old = way_tags[victim];
        positions[misses] = i;
        evicted[misses] = old;
        misses++;
        if (old != 0) {
            evictions++;
            writebacks += way_dirty[victim];
        }
        way_tags[victim] = tag;
        way_dirty[victim] = write;
        if (policy == LRU)
            policy_state[victim] = clock + i + 1;
        else if (policy == PLRU)
            plru_touch(policy_state, associativity, victim);
    }

    tally[0] = count - misses;
    tally[1] = misses;
    tally[2] = evictions;
    tally[3] = writebacks;
    tally[4] = compared;
    for (int t = 0; t < 3; t++)
        tally[5 + t] = by_type[t];
}
